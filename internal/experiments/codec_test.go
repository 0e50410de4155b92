package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"nearestpeer/internal/p2p"
)

// wirePayloads names every payload type the schemes register with the UDP
// codec. This package imports every scheme, so all of them are registered
// here; a payload added without an entry fails TestCodecCoversEveryPayload.
var wirePayloads = []string{
	// internal/p2p: chord, Meridian, expanding search.
	"c_fetch", "c_fetch_ok", "c_find", "c_find_ok", "c_handoff", "c_state_ok", "c_store",
	"m_done", "m_probe", "m_probe_ok", "m_query",
	"x_find", "x_found",
	// The other wire schemes, one line per package: azureus, beacon,
	// kargerruhl, pic, rendezvous, tiers, tapestry, vivaldi.
	"az_announce_ok",
	"b_band", "b_band_ok", "b_est", "b_est_ok", "b_gsbest", "b_gsbest_ok",
	"kr_balls", "kr_balls_ok",
	"pic_step", "pic_step_ok",
	"rv_list_ok",
	"t_cluster", "t_cluster_ok",
	"tap_levels", "tap_levels_ok",
	"v_snap", "v_walk", "v_walk_ok",
}

// populate fills every field of the settable v with a non-zero value,
// using k to vary them, and returns the next k. Floats cycle through the
// non-finite values too.
func populate(t *testing.T, v reflect.Value, k int) int {
	k++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-k))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(k))
	case reflect.Float64:
		v.SetFloat([]float64{0.25 * float64(k), math.NaN(), math.Inf(1), math.Inf(-1)}[k%4])
	case reflect.String:
		v.SetString("s" + string(rune('a'+k%26)))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			k = populate(t, s.Index(i), k)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for _, key := range []string{"b", "a"} {
			e := reflect.New(v.Type().Elem()).Elem()
			k = populate(t, e, k)
			m.SetMapIndex(reflect.ValueOf(key).Convert(v.Type().Key()), e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			k = populate(t, v.Field(i), k)
			if v.Field(i).IsZero() {
				t.Fatalf("populate left %v.%s zero", v.Type(), v.Type().Field(i).Name)
			}
		}
	default:
		t.Fatalf("populate: no value for kind %v", v.Kind())
	}
	return k
}

// TestCodecCoversEveryPayload round-trips a fully populated sample of
// every registered payload type through the UDP codec: the frame must
// re-encode to the same bytes (NaN-safe, unlike DeepEqual), the decoded
// payload must keep the registered dynamic type, and no field may come
// back zero.
func TestCodecCoversEveryPayload(t *testing.T) {
	want := make(map[string]bool, len(wirePayloads))
	for _, name := range wirePayloads {
		want[name] = true
	}
	for _, name := range p2p.RegisteredPayloads() {
		if !want[name] {
			t.Errorf("payload %q has no sample: add it to wirePayloads", name)
			continue
		}
		delete(want, name)
		typ := p2p.PayloadType(name)
		sample := reflect.New(typ).Elem()
		target := sample
		if typ.Kind() == reflect.Pointer {
			sample.Set(reflect.New(typ.Elem()))
			target = sample.Elem()
		}
		populate(t, target, 0)
		frame, err := p2p.EncodeEnvelope(p2p.Envelope{Type: name, From: 1, To: 2, MsgID: 3, Payload: sample.Interface()})
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		env, err := p2p.DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got := reflect.TypeOf(env.Payload); got != typ {
			t.Fatalf("%s: decoded as %v, want %v", name, got, typ)
		}
		again, err := p2p.EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("%s: round trip changed the frame\n sent %#v\n got  %#v", name, sample.Interface(), env.Payload)
		}
		got := reflect.ValueOf(env.Payload)
		if typ.Kind() == reflect.Pointer {
			got = got.Elem()
		}
		for i := 0; i < got.NumField(); i++ {
			if got.Field(i).IsZero() {
				t.Errorf("%s: field %s came back zero", name, got.Type().Field(i).Name)
			}
		}
	}
	for name := range want {
		t.Errorf("payload %q is listed but not registered", name)
	}
}
