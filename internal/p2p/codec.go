// The wire codec of the UDP transport: a length-prefixed binary frame
// around each Envelope, with the protocol-specific payload carried as a
// registered type name plus a binary body. The simulator and the loopback
// transport pass Envelope values in memory and never touch this; the UDP
// transport encodes every send and decodes every datagram.
//
// A frame is a u32 length of the rest, a version byte, a flags byte, the
// MsgID, From and To as 8 bytes each, the u16-prefixed type tag and, when
// there is a payload, its u16-prefixed registered name and u32-prefixed
// body. The body is the registered type's fields (a pointer sample's
// element's fields) in declaration order, each encoded by kind:
//
//   - signed integers (NodeID included) as zigzag varints, unsigned ones
//     as uvarints;
//   - float64 as its 8 raw IEEE-754 bits, so NaN and ±Inf cross intact;
//   - bool as one byte, 0 or 1;
//   - strings and []byte as a uvarint length and the bytes;
//   - other slices as a uvarint count and the elements;
//   - maps (string keys only) as a count and key/value pairs in ascending
//     key order, so equal maps encode to equal bytes;
//   - nested structs inline.
//
// Nil and empty slices and maps both encode as count 0 and decode as nil.
// RegisterPayload compiles each type's encoder and decoder once and
// panics on anything else (unexported fields, funcs, chans, interfaces,
// non-string map keys, nested pointers, float32).
//
// Frames must survive a hostile network: every decode error is an error
// value, never a panic, and no count is believed beyond the bytes left to
// back it — the fuzz tests (codec_fuzz_test.go) hold that line over
// truncated, oversized, and garbage frames.

package p2p

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// MaxFrame is the largest encoded frame the codec accepts, on both ends:
// encoding a bigger envelope fails, and a claimed length beyond it is
// rejected before any allocation. It comfortably exceeds every protocol
// message (the largest, a chord handoff, carries a node's key slice) while
// staying under the conventional 64 KiB UDP datagram ceiling.
const MaxFrame = 60 << 10

// codecVersion is the frame format version; decoders reject others.
// Version 1 carried JSON payload bodies; version 2 the binary encoding.
const codecVersion = 2

// Frame flag bits.
const (
	flagResp    = 1 << 0 // Envelope.Resp
	flagPayload = 1 << 1 // a payload block follows the type tag
)

// encodeFn appends v's encoding to b.
type encodeFn func(b []byte, v reflect.Value) []byte

// decodeFn decodes into the settable v; failures land in r.err.
type decodeFn func(r *frameReader, v reflect.Value)

// payloadCodec is one registered payload type with its compiled body
// encoding.
type payloadCodec struct {
	name string
	typ  reflect.Type // the sample's type
	ptr  bool         // typ is a pointer: the body encodes its element
	elem reflect.Type // the type the body encodes
	enc  encodeFn
	dec  decodeFn
}

// payloadRegistry maps wire names to payload codecs and types back to
// them. Entries are registered at init time by the protocol packages; the
// maps are read-mostly and guarded for the rare late registration (tests).
var payloadRegistry = struct {
	sync.RWMutex
	byName map[string]*payloadCodec
	byType map[reflect.Type]*payloadCodec
}{
	byName: make(map[string]*payloadCodec),
	byType: make(map[reflect.Type]*payloadCodec),
}

// RegisterPayload registers a payload type for the wire codec under a
// stable name. sample fixes the dynamic type: decode reproduces exactly
// it (a pointer sample decodes to a pointer, a value sample to a value),
// so handler type assertions behave identically on the simulated and the
// UDP transport. Registering two types under one name, or one type under
// two names, panics — payload identity must be unambiguous on the wire —
// and so does a type the codec cannot carry (see the file comment).
func RegisterPayload(name string, sample any) {
	if name == "" || sample == nil {
		panic("p2p: RegisterPayload with empty name or nil sample")
	}
	t := reflect.TypeOf(sample)
	pc := &payloadCodec{name: name, typ: t, elem: t}
	if t.Kind() == reflect.Pointer {
		pc.ptr, pc.elem = true, t.Elem()
	}
	var err error
	if pc.enc, pc.dec, _, err = compileCodec(pc.elem, map[reflect.Type]bool{}); err != nil {
		panic(fmt.Sprintf("p2p: payload %q (%v): %v", name, t, err))
	}
	payloadRegistry.Lock()
	defer payloadRegistry.Unlock()
	if prev, ok := payloadRegistry.byName[name]; ok && prev.typ != t {
		panic(fmt.Sprintf("p2p: payload name %q registered for both %v and %v", name, prev.typ, t))
	}
	if prev, ok := payloadRegistry.byType[t]; ok && prev.name != name {
		panic(fmt.Sprintf("p2p: payload type %v registered as both %q and %q", t, prev.name, name))
	}
	payloadRegistry.byName[name] = pc
	payloadRegistry.byType[t] = pc
}

// RegisteredPayloads returns the sorted wire names of all registered
// payload types (tests and diagnostics).
func RegisteredPayloads() []string {
	payloadRegistry.RLock()
	defer payloadRegistry.RUnlock()
	out := make([]string, 0, len(payloadRegistry.byName))
	for name := range payloadRegistry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PayloadType returns the type registered under name, or nil (tests and
// diagnostics).
func PayloadType(name string) reflect.Type {
	payloadRegistry.RLock()
	defer payloadRegistry.RUnlock()
	if pc := payloadRegistry.byName[name]; pc != nil {
		return pc.typ
	}
	return nil
}

func init() {
	// The chord payloads (chord.go).
	RegisterPayload("c_find", cFindMsg{})
	RegisterPayload("c_find_ok", cFindOKMsg{})
	RegisterPayload("c_state_ok", cStateOKMsg{})
	RegisterPayload("c_store", cStoreMsg{})
	RegisterPayload("c_fetch", cFetchMsg{})
	RegisterPayload("c_fetch_ok", cFetchOKMsg{})
	RegisterPayload("c_handoff", cHandoffMsg{})
	// The Meridian payloads (meridian.go).
	RegisterPayload("m_query", queryMsg{})
	RegisterPayload("m_probe", probeMsg{})
	RegisterPayload("m_probe_ok", probeOKMsg{})
	RegisterPayload("m_done", doneMsg{})
	// The expanding-search payloads (expand.go).
	RegisterPayload("x_find", findMsg{})
	RegisterPayload("x_found", foundMsg{})
}

// compileCodec builds the encoder and decoder of t's body encoding and
// reports the fewest bytes one value of t can encode to, which bounds the
// element counts a decoder believes. active holds the struct types being
// compiled, to reject recursive types instead of recursing forever.
func compileCodec(t reflect.Type, active map[reflect.Type]bool) (encodeFn, decodeFn, int, error) {
	switch t.Kind() {
	case reflect.Bool:
		return func(b []byte, v reflect.Value) []byte {
				if v.Bool() {
					return append(b, 1)
				}
				return append(b, 0)
			}, func(r *frameReader, v reflect.Value) {
				switch r.u8() {
				case 0:
				case 1:
					v.SetBool(true)
				default:
					r.fail("bool byte at offset %d is not 0 or 1", r.off-1)
				}
			}, 1, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) []byte {
				return binary.AppendVarint(b, v.Int())
			}, func(r *frameReader, v reflect.Value) {
				if x := r.varint(); v.OverflowInt(x) {
					r.fail("%v value %d out of range", v.Type(), x)
				} else {
					v.SetInt(x)
				}
			}, 1, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(b []byte, v reflect.Value) []byte {
				return binary.AppendUvarint(b, v.Uint())
			}, func(r *frameReader, v reflect.Value) {
				if x := r.uvarint(); v.OverflowUint(x) {
					r.fail("%v value %d out of range", v.Type(), x)
				} else {
					v.SetUint(x)
				}
			}, 1, nil
	case reflect.Float64:
		return func(b []byte, v reflect.Value) []byte {
				return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
			}, func(r *frameReader, v reflect.Value) {
				v.SetFloat(math.Float64frombits(r.u64()))
			}, 8, nil
	case reflect.String:
		return func(b []byte, v reflect.Value) []byte {
				b = binary.AppendUvarint(b, uint64(v.Len()))
				return append(b, v.String()...)
			}, func(r *frameReader, v reflect.Value) {
				v.SetString(string(r.take(r.count(1))))
			}, 1, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return func(b []byte, v reflect.Value) []byte {
					b = binary.AppendUvarint(b, uint64(v.Len()))
					return append(b, v.Bytes()...)
				}, func(r *frameReader, v reflect.Value) {
					if raw := r.take(r.count(1)); len(raw) > 0 {
						v.SetBytes(append([]byte(nil), raw...))
					}
				}, 1, nil
		}
		enc, dec, elemSize, err := compileCodec(t.Elem(), active)
		if err != nil {
			return nil, nil, 0, err
		}
		return func(b []byte, v reflect.Value) []byte {
				n := v.Len()
				b = binary.AppendUvarint(b, uint64(n))
				for i := 0; i < n; i++ {
					b = enc(b, v.Index(i))
				}
				return b
			}, func(r *frameReader, v reflect.Value) {
				n := r.count(elemSize)
				if n == 0 {
					return
				}
				v.Grow(n) // in place: no slice header boxed as with MakeSlice
				v.SetLen(n)
				for i := 0; i < n && r.err == nil; i++ {
					dec(r, v.Index(i))
				}
			}, 1, nil
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			return nil, nil, 0, fmt.Errorf("map key type %v is not a string", t.Key())
		}
		enc, dec, elemSize, err := compileCodec(t.Elem(), active)
		if err != nil {
			return nil, nil, 0, err
		}
		return func(b []byte, v reflect.Value) []byte {
				keys := v.MapKeys()
				sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
				b = binary.AppendUvarint(b, uint64(len(keys)))
				for _, k := range keys {
					b = binary.AppendUvarint(b, uint64(k.Len()))
					b = append(b, k.String()...)
					b = enc(b, v.MapIndex(k))
				}
				return b
			}, func(r *frameReader, v reflect.Value) {
				n := r.count(1 + elemSize)
				if n == 0 {
					return
				}
				m := reflect.MakeMapWithSize(t, n)
				var prev string
				for i := 0; i < n && r.err == nil; i++ {
					k := string(r.take(r.count(1)))
					if i > 0 && k <= prev {
						r.fail("map key %q not after %q", k, prev)
						return
					}
					prev = k
					e := reflect.New(t.Elem()).Elem()
					dec(r, e)
					m.SetMapIndex(reflect.ValueOf(k).Convert(t.Key()), e)
				}
				v.Set(m)
			}, 1, nil
	case reflect.Struct:
		if active[t] {
			return nil, nil, 0, fmt.Errorf("recursive type %v", t)
		}
		active[t] = true
		defer delete(active, t)
		encs := make([]encodeFn, t.NumField())
		decs := make([]decodeFn, t.NumField())
		size := 0
		for i := range encs {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, nil, 0, fmt.Errorf("unexported field %v.%s", t, f.Name)
			}
			enc, dec, fieldSize, err := compileCodec(f.Type, active)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("field %v.%s: %w", t, f.Name, err)
			}
			encs[i], decs[i] = enc, dec
			size += fieldSize
		}
		return func(b []byte, v reflect.Value) []byte {
				for i, enc := range encs {
					b = enc(b, v.Field(i))
				}
				return b
			}, func(r *frameReader, v reflect.Value) {
				for i, dec := range decs {
					dec(r, v.Field(i))
				}
			}, size, nil
	}
	return nil, nil, 0, fmt.Errorf("unsupported kind %v (type %v)", t.Kind(), t)
}

// appendU16 appends a big-endian uint16.
func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// EncodeEnvelope encodes env as one wire frame: a u32 length prefix
// (counting everything after itself), the fixed header, the type tag, and
// — when env.Payload is non-nil — the payload's registered name and a u32
// length-prefixed binary body. It fails on unregistered payload types, nil
// pointer payloads, and frames over MaxFrame.
func EncodeEnvelope(env Envelope) ([]byte, error) {
	return appendEnvelope(make([]byte, 0, 128), env)
}

// appendEnvelope appends env's frame to b (see EncodeEnvelope); the UDP
// transport reuses one buffer across sends this way.
func appendEnvelope(b []byte, env Envelope) ([]byte, error) {
	if len(env.Type) > 0xFFFF {
		return nil, fmt.Errorf("p2p: message type %q too long", env.Type[:32])
	}
	var flags byte
	if env.Resp {
		flags |= flagResp
	}
	var pc *payloadCodec
	if env.Payload != nil {
		flags |= flagPayload
		payloadRegistry.RLock()
		pc = payloadRegistry.byType[reflect.TypeOf(env.Payload)]
		payloadRegistry.RUnlock()
		if pc == nil {
			return nil, fmt.Errorf("p2p: payload type %T not registered with RegisterPayload", env.Payload)
		}
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0, codecVersion, flags)
	b = binary.BigEndian.AppendUint64(b, env.MsgID)
	b = binary.BigEndian.AppendUint64(b, uint64(int64(env.From)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(env.To)))
	b = appendU16(b, uint16(len(env.Type)))
	b = append(b, env.Type...)
	if pc != nil {
		v := reflect.ValueOf(env.Payload)
		if pc.ptr {
			if v.IsNil() {
				return nil, fmt.Errorf("p2p: nil %T payload", env.Payload)
			}
			v = v.Elem()
		}
		b = appendU16(b, uint16(len(pc.name)))
		b = append(b, pc.name...)
		body := len(b)
		b = append(b, 0, 0, 0, 0)
		b = pc.enc(b, v)
		binary.BigEndian.PutUint32(b[body:], uint32(len(b)-body-4))
	}
	if n := len(b) - start; n > MaxFrame {
		return nil, fmt.Errorf("p2p: frame %d bytes exceeds cap %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b, nil
}

// frameReader walks a frame or a payload body with bounds checks; any
// overrun or malformed value sets err and further reads return zero
// values.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated at offset %d (want %d of %d bytes)", r.off, n, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *frameReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *frameReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// count reads a length or element count and rejects it, before anything
// is allocated for it, when the bytes left cannot hold that many elements
// of at least elemSize bytes each.
func (r *frameReader) count(elemSize int) int {
	at := r.off
	n := r.uvarint()
	if left := uint64(len(r.b) - r.off); n > left/uint64(max(elemSize, 1)) {
		r.fail("count %d at offset %d exceeds the %d bytes left", n, at, left)
		return 0
	}
	return int(n)
}

// DecodeEnvelope decodes one wire frame produced by EncodeEnvelope. Every
// malformed input — truncated, oversized, version-skewed, unknown payload
// name, malformed body, trailing garbage — returns an error; none panics.
// The envelope shares no memory with b: strings and byte slices are
// copied out, so the caller may reuse b at once.
func DecodeEnvelope(b []byte) (Envelope, error) {
	var env Envelope
	if len(b) > MaxFrame {
		return env, fmt.Errorf("p2p: frame %d bytes exceeds cap %d", len(b), MaxFrame)
	}
	r := &frameReader{b: b}
	if n := r.u32(); r.err == nil && int(n) != len(b)-4 {
		return env, fmt.Errorf("p2p: frame length %d does not match %d body bytes", n, len(b)-4)
	}
	if v := r.u8(); r.err == nil && v != codecVersion {
		return env, fmt.Errorf("p2p: frame version %d (want %d)", v, codecVersion)
	}
	flags := r.u8()
	if r.err == nil && flags&^(flagResp|flagPayload) != 0 {
		return env, fmt.Errorf("p2p: unknown frame flags %#x", flags)
	}
	env.Resp = flags&flagResp != 0
	env.MsgID = r.u64()
	env.From = NodeID(int64(r.u64()))
	env.To = NodeID(int64(r.u64()))
	env.Type = string(r.take(int(r.u16())))
	if flags&flagPayload != 0 {
		name := r.take(int(r.u16()))
		body := r.take(int(r.u32()))
		if r.err == nil {
			payloadRegistry.RLock()
			pc := payloadRegistry.byName[string(name)]
			payloadRegistry.RUnlock()
			if pc == nil {
				return Envelope{}, fmt.Errorf("p2p: unknown payload type %q", name)
			}
			v := reflect.New(pc.elem)
			pr := &frameReader{b: body}
			pc.dec(pr, v.Elem())
			if pr.err == nil && pr.off != len(body) {
				pr.fail("%d trailing bytes after body", len(body)-pr.off)
			}
			if pr.err != nil {
				return Envelope{}, fmt.Errorf("p2p: decode %s payload: %w", pc.name, pr.err)
			}
			if pc.ptr {
				env.Payload = v.Interface()
			} else {
				env.Payload = v.Elem().Interface()
			}
		}
	}
	if r.err != nil {
		return Envelope{}, fmt.Errorf("p2p: frame %w", r.err)
	}
	if r.off != len(b) {
		return Envelope{}, fmt.Errorf("p2p: %d trailing bytes after frame", len(b)-r.off)
	}
	return env, nil
}
