package p2p

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeedEnvelopes is the set of well-formed envelopes seeding the fuzz
// corpus: one per protocol payload family, plus the payload-less pings.
func fuzzSeedEnvelopes() []Envelope {
	return []Envelope{
		{Type: MsgPing, From: 1, To: 2, MsgID: 7},
		{Type: MsgPong, From: 2, To: 1, MsgID: 7, Resp: true},
		{Type: MsgChordFind, From: 3, To: 4, MsgID: 99, Payload: cFindMsg{Key: 0xDEADBEEF}},
		{Type: MsgChordFindOK, From: 4, To: 3, MsgID: 99, Resp: true,
			Payload: cFindOKMsg{Done: true, Owner: 5, Reps: []NodeID{6, 7}, Next: NoNode, Alts: []NodeID{8}}},
		{Type: MsgChordStore, From: 0, To: 5, MsgID: 12,
			Payload: cStoreMsg{Key: "k", Val: []byte{0, 1, 2, 0xFF}, Rep: 3}},
		{Type: MsgChordFetchOK, From: 5, To: 0, MsgID: 13, Resp: true,
			Payload: cFetchOKMsg{Vals: [][]byte{[]byte("a"), nil, []byte("b")}}},
		{Type: MsgChordHandoff, From: 1, To: 2, MsgID: 14,
			Payload: cHandoffMsg{Data: map[string][][]byte{"x": {[]byte("y")}, "a": {nil, []byte("b")}}}},
		{Type: MsgQuery, From: 9, To: 10, MsgID: 15,
			Payload: queryMsg{QID: 1, Origin: 9, Target: 11, D: 12.5, BestID: 10, BestLat: 3.25, Hops: 2, Visited: []NodeID{9, 10}}},
		{Type: MsgQuery, From: 9, To: 10, MsgID: 18,
			Payload: queryMsg{QID: 2, Origin: 9, Target: 11, D: math.NaN(), BestID: NoNode, BestLat: math.Inf(1)}},
		{Type: MsgProbeOK, From: 10, To: 9, MsgID: 16, Resp: true, Payload: probeOKMsg{RTTms: 1.5, OK: true}},
		{Type: MsgFind, From: 0, To: 1, MsgID: 17, Payload: findMsg{SID: 4, From: 0, Round: 2}},
	}
}

// reencode checks that env encodes, decodes, and re-encodes to the same
// bytes — the codec's canonical round trip, which unlike DeepEqual holds
// for NaN payload fields — and returns the decoded envelope.
func reencode(t *testing.T, env Envelope) Envelope {
	t.Helper()
	b, err := EncodeEnvelope(env)
	if err != nil {
		t.Fatalf("encode %+v: %v", env, err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("decode %+v: %v", env, err)
	}
	again, err := EncodeEnvelope(got)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", got, err)
	}
	if !bytes.Equal(b, again) {
		t.Fatalf("round trip changed the frame\n sent %+v\n got  %+v", env, got)
	}
	return got
}

// TestEnvelopeCodecRoundTrip pins the codec's happy path: every seed
// envelope round-trips to the same frame, and payloads without NaN come
// back DeepEqual.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	for _, env := range fuzzSeedEnvelopes() {
		got := reencode(t, env)
		if q, ok := env.Payload.(queryMsg); ok && math.IsNaN(q.D) {
			continue
		}
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("round trip\n sent %+v\n got  %+v", env, got)
		}
	}
}

// TestEnvelopeCodecNonFinite is the regression for non-finite floats:
// Meridian's first hop carries BestLat = +Inf and NaN marks unknown
// distances, and both must cross the wire bit for bit rather than being
// refused by the encoder (and the envelope dead-lettered).
func TestEnvelopeCodecNonFinite(t *testing.T) {
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF) // a NaN with payload bits
	sent := queryMsg{QID: 3, Origin: 1, Target: 2, D: nan, BestID: NoNode, BestLat: math.Inf(1), Visited: []NodeID{1}}
	got := reencode(t, Envelope{Type: MsgQuery, From: 1, To: 2, MsgID: 5, Payload: sent}).Payload.(queryMsg)
	if math.Float64bits(got.D) != math.Float64bits(nan) || !math.IsInf(got.BestLat, 1) {
		t.Fatalf("non-finite fields changed: D %x BestLat %v", math.Float64bits(got.D), got.BestLat)
	}
	neg := reencode(t, Envelope{Type: MsgProbeOK, Payload: probeOKMsg{RTTms: math.Inf(-1)}}).Payload.(probeOKMsg)
	if !math.IsInf(neg.RTTms, -1) {
		t.Fatalf("RTTms %v, want -Inf", neg.RTTms)
	}
}

// narrowPayload has integer fields narrower than 64 bits, whose decode
// must reject varints out of their range.
type narrowPayload struct {
	S int8
	U uint16
}

func init() { RegisterPayload("t_narrow", narrowPayload{}) }

// rawFrame assembles a well-formed frame around an arbitrary payload name
// and body, to aim malformed bodies at the payload decoder.
func rawFrame(name string, body []byte) []byte {
	b := []byte{0, 0, 0, 0, codecVersion, flagPayload}
	b = append(b, make([]byte, 24)...) // MsgID, From, To
	b = appendU16(b, 1)
	b = append(b, 'x')
	b = appendU16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	b = append(b, body...)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// TestEnvelopeCodecRejects pins the codec's error paths: malformed frames
// and payload bodies return errors (and never panic, which the fuzz target
// enforces at scale).
func TestEnvelopeCodecRejects(t *testing.T) {
	valid, err := EncodeEnvelope(Envelope{Type: MsgChordFind, From: 1, To: 2, MsgID: 3, Payload: cFindMsg{Key: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(rawFrame("c_find", []byte{9})); err != nil {
		t.Fatalf("rawFrame builds a bad frame: %v", err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short prefix":    valid[:3],
		"truncated body":  valid[:len(valid)-4],
		"length mismatch": append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, valid[4:]...),
		"bad version":     append([]byte{valid[0], valid[1], valid[2], valid[3], 99}, valid[5:]...),
		"v1 frame":        append([]byte{valid[0], valid[1], valid[2], valid[3], 1}, valid[5:]...),
		"trailing bytes": func() []byte {
			b := append(append([]byte(nil), valid...), 0xAA)
			return b
		}(),
		"garbage":  {0, 0, 0, 6, 1, 0, 0, 0, 0, 0},
		"all ones": {255, 255, 255, 255, 255, 255, 255, 255},

		"unknown payload":          rawFrame("nope", nil),
		"payload trailing bytes":   rawFrame("c_find", []byte{9, 0}),
		"payload truncated":        rawFrame("m_probe_ok", make([]byte, 8)),
		"bool byte 2":              rawFrame("m_probe_ok", append(make([]byte, 8), 2)),
		"string beyond body":       rawFrame("c_fetch", []byte{0x7F, 'a'}),
		"slice count beyond body":  rawFrame("c_fetch_ok", []byte{0xFF, 0xFF, 0x03}),
		"unsorted map keys":        rawFrame("c_handoff", []byte{2, 1, 'b', 0, 1, 'a', 0}),
		"duplicate map keys":       rawFrame("c_handoff", []byte{2, 1, 'a', 0, 1, 'a', 0}),
		"varint overflow":          rawFrame("x_found", append([]byte{1}, bytes.Repeat([]byte{0xFF}, 11)...)),
		"huge count, small frame":  rawFrame("c_find_ok", []byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}),
		"count with no bytes left": rawFrame("c_state_ok", []byte{0, 1}),
		"int8 out of range":        rawFrame("t_narrow", []byte{0x80, 0x02, 0}),
		"uint16 out of range":      rawFrame("t_narrow", []byte{0, 0x80, 0x80, 0x04}),
	}
	for name, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}

	if _, err := EncodeEnvelope(Envelope{Type: "x", Payload: struct{ X int }{1}}); err == nil {
		t.Error("encode accepted an unregistered payload type")
	}
	if got := reencode(t, Envelope{Type: "x", Payload: narrowPayload{S: -128, U: 65535}}); got.Payload != (narrowPayload{S: -128, U: 65535}) {
		t.Errorf("narrow integers at their limits came back as %+v", got.Payload)
	}
	// Non-finite floats are payload values, not encode errors.
	if got := reencode(t, Envelope{Type: MsgProbeOK, Payload: probeOKMsg{RTTms: math.Inf(1)}}); !math.IsInf(got.Payload.(probeOKMsg).RTTms, 1) {
		t.Errorf("+Inf RTTms came back as %v", got.Payload.(probeOKMsg).RTTms)
	}
	big := cStoreMsg{Key: "k", Val: make([]byte, MaxFrame)}
	if _, err := EncodeEnvelope(Envelope{Type: MsgChordStore, Payload: big}); err == nil {
		t.Error("encode accepted a frame over MaxFrame")
	}
	oversized := make([]byte, MaxFrame+1)
	if _, err := DecodeEnvelope(oversized); err == nil {
		t.Error("decode accepted a frame over MaxFrame")
	}
}

// TestDecodeEnvelopeCopiesOut pins what lets the UDP read loop decode
// straight from its reused read buffer: an envelope shares no memory with
// the frame it was decoded from.
func TestDecodeEnvelopeCopiesOut(t *testing.T) {
	for _, env := range fuzzSeedEnvelopes() {
		buf, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), buf...)
		got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		again, err := EncodeEnvelope(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("%s envelope changed when its read buffer was overwritten: %+v", env.Type, got)
		}
	}
}

type recursivePayload struct{ Kids []recursivePayload }

// TestRegisterPayloadRejectsUnsupported pins registration-time type
// checking: a payload the codec cannot carry panics at RegisterPayload,
// naming the offending field, rather than failing on the first send.
func TestRegisterPayloadRejectsUnsupported(t *testing.T) {
	samples := map[string]any{
		"unexported field": struct{ x int }{},
		"func":             struct{ F func() }{},
		"chan":             struct{ C chan int }{},
		"interface":        struct{ I any }{},
		"int map key":      struct{ M map[int]string }{},
		"nested pointer":   struct{ P *int }{},
		"float32":          struct{ F float32 }{},
		"array":            struct{ A [2]int }{},
		"pointer pointer":  new(*cFindMsg),
		"recursive":        recursivePayload{},
	}
	for what, sample := range samples {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: RegisterPayload accepted %T", what, sample)
				} else if msg, _ := r.(string); !strings.Contains(msg, "t_bad_") {
					t.Errorf("%s: panic %v does not name the payload", what, r)
				}
			}()
			RegisterPayload("t_bad_"+what, sample)
		}()
	}
	for _, name := range RegisteredPayloads() {
		if strings.HasPrefix(name, "t_bad_") {
			t.Errorf("rejected payload %q left in the registry", name)
		}
	}
}

// FuzzEnvelopeCodec is the robustness gate the CI fuzz-replay step runs:
// DecodeEnvelope must never panic, and any frame it accepts must
// re-encode to a canonical frame that decodes and re-encodes to itself.
func FuzzEnvelopeCodec(f *testing.F) {
	for _, env := range fuzzSeedEnvelopes() {
		if b, err := EncodeEnvelope(env); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return // malformed input rejected: the contract held
		}
		b, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v (env %+v)", err, env)
		}
		again, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if env.Type != again.Type || env.From != again.From || env.To != again.To ||
			env.MsgID != again.MsgID || env.Resp != again.Resp {
			t.Fatalf("header round trip\n first  %+v\n second %+v", env, again)
		}
		b2, err := EncodeEnvelope(again)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("payload round trip\n first  %#v\n second %#v", env.Payload, again.Payload)
		}
	})
}
