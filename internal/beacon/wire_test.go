package beacon

import (
	"math"
	"testing"

	"nearestpeer/internal/p2p"
)

// TestEstOKCrossesTheWire is the regression for NaN payloads: an estimate
// answer marks unknown latencies NaN, and the UDP codec must carry them
// bit for bit instead of refusing the envelope.
func TestEstOKCrossesTheWire(t *testing.T) {
	nan := math.NaN()
	b, err := p2p.EncodeEnvelope(p2p.Envelope{Type: MsgEstOK, From: 1, To: 2, MsgID: 3, Resp: true,
		Payload: estOK{Lats: []float64{nan, 1}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	env, err := p2p.DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := env.Payload.(estOK).Lats
	if len(got) != 2 || math.Float64bits(got[0]) != math.Float64bits(nan) || got[1] != 1 {
		t.Fatalf("Lats round-tripped to %v", got)
	}
}
