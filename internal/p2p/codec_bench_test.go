package p2p

import "testing"

// codecBenchEnvelopes are the hot live-path frames: a chord routing step
// and its answer, and a fetch answer carrying one value.
var codecBenchEnvelopes = []struct {
	name string
	env  Envelope
}{
	{"find", Envelope{Type: MsgChordFind, From: 3, To: 4, MsgID: 99, Payload: cFindMsg{Key: 0xDEADBEEF}}},
	{"find_ok", Envelope{Type: MsgChordFindOK, From: 4, To: 3, MsgID: 99, Resp: true,
		Payload: cFindOKMsg{Owner: 5, Next: 9, Reps: []NodeID{6, 7, 8}, Alts: []NodeID{10, 11, 12}}}},
	{"fetch_ok", Envelope{Type: MsgChordFetchOK, From: 5, To: 0, MsgID: 13, Resp: true,
		Payload: cFetchOKMsg{Vals: [][]byte{[]byte("c1/k17/p3.g2")}}}},
}

// BenchmarkEnvelopeEncode prices EncodeEnvelope per frame.
func BenchmarkEnvelopeEncode(b *testing.B) {
	for _, c := range codecBenchEnvelopes {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeEnvelope(c.env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeDecode prices DecodeEnvelope per frame.
func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, c := range codecBenchEnvelopes {
		frame, err := EncodeEnvelope(c.env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeEnvelope(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
