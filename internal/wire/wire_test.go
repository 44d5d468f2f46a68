package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"apf/internal/core"
	"apf/internal/recon"
)

// sampleMsgs covers all four kinds with awkward values: NaN and ±Inf
// payloads, empty slices, a nested missed-payload list, negative ints.
func sampleMsgs() []Msg {
	return []Msg{
		&JoinMsg{Name: "shard-0", SessionKey: "key/with=padding==", HaveRound: -1},
		&JoinMsg{},
		&WelcomeMsg{
			ClientID:   3,
			NumClients: 8,
			Rounds:     40,
			Dim:        4,
			Init:       []float64{0, math.NaN(), math.Inf(1), -0.0},
			Round:      7,
			Resumed:    true,
			Missed: []GlobalMsg{
				{Round: 5, Payload: []float64{1, 2, 3, 4}, Participants: 8},
				{Round: 6, Payload: []float64{math.Inf(-1)}, Participants: 2},
			},
		},
		&WelcomeMsg{Dim: 1, Init: []float64{42}},
		&UpdateMsg{Round: 9, Payload: []float64{1.5, math.NaN()}, Weight: 0.125, MaskHash: 0xdeadbeefcafe},
		&UpdateMsg{},
		&GlobalMsg{Round: 11, Payload: []float64{math.Copysign(0, -1), 7}, Participants: 32},
		&GlobalMsg{},
		&WelcomeMsg{ClientID: 2, NumClients: 4, Rounds: 90, Dim: 2,
			Init: []float64{1, 2}, Round: 61, Resumed: true, CatchUp: true, MaskGen: 17},
		&ResumeOfferMsg{Round: 60, MaskGen: 17},
		&ResumeOfferMsg{Round: 60, MaskGen: 17, NeedMore: true},
		&ResumeOfferMsg{Round: 60, MaskGen: 17, Words: []int{0, 5, 63}},
		&ResumeOfferMsg{Round: 60, MaskGen: 17, Words: []int{}},
		&ResumeOfferMsg{Round: -1, MaskGen: -1},
		&SketchMsg{Round: 61, MaskGen: 17, Start: 128, Cells: []recon.Cell{
			{Sum: recon.PackWordGen(5, 18), Hash: 0xfeedface, Count: 1},
			{Sum: 0, Hash: 0, Count: -3},
		}},
		&SketchMsg{Round: 61, MaskGen: 17},
		&SnapshotMsg{Round: 61, MaskGen: 17,
			Payload: []float64{math.NaN(), math.Inf(-1), -0.0},
			Manager: []byte{0x00, 0xff, 0x7f}},
		&SnapshotMsg{Round: 0, MaskGen: -1, Payload: []float64{4}},
		&DeltaMsg{Round: 61, MaskGen: 17,
			Header: core.SyncHeader{Threshold: 0.22, CheckCount: 12, Seen: 3,
				Initialized: true, InitRound: 0, LastRound: 61},
			Words: []core.WordBlock{{
				Word: 3, Gen: 62, Seeded: 0x8000000000000001,
				X: []float64{1, math.NaN()}, Ref: []float64{2, 0}, LastCheck: []float64{3, -0.0},
				E: []float64{4, 0.5}, A: []float64{5, 0.25}, Period: []float64{6, 1},
				UnfreezeAt: []int{7, -1}, RandomUntil: []int{0, 9},
			}}},
		&DeltaMsg{Round: 61, MaskGen: 17},
	}
}

// sameMsg compares messages bit-exactly (NaN == NaN, -0 != +0).
func sameMsg(t *testing.T, a, b Msg) {
	t.Helper()
	var wa, wb [2][]byte
	wa[0] = Encode(a)
	wb[0] = Encode(b)
	if !bytes.Equal(wa[0], wb[0]) {
		t.Fatalf("messages differ:\n got %#v\nwant %#v", b, a)
	}
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		t.Fatalf("type mismatch: %T vs %T", a, b)
	}
}

func TestRoundTripDecode(t *testing.T) {
	for _, m := range sampleMsgs() {
		frame := Encode(m)
		got, rest, err := Decode(frame, 0)
		if err != nil {
			t.Fatalf("%s: Decode: %v", m.WireKind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d bytes left after sole frame", m.WireKind(), len(rest))
		}
		sameMsg(t, m, got)
	}
}

func TestRoundTripStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		buf.Write(Encode(m))
	}
	for _, want := range msgs {
		got, err := ReadMsg(&buf, 0)
		if err != nil {
			t.Fatalf("%s: ReadMsg: %v", want.WireKind(), err)
		}
		sameMsg(t, want, got)
	}
	if _, err := ReadMsg(&buf, 0); err != io.EOF {
		t.Fatalf("EOF after last frame: got %v", err)
	}
}

// TestCanonicalEncoding pins the property fuzzing relies on: re-encoding a
// decoded message reproduces the original frame byte for byte.
func TestCanonicalEncoding(t *testing.T) {
	var stream []byte
	for _, m := range sampleMsgs() {
		stream = Append(stream, m)
	}
	rest := stream
	var rebuilt []byte
	for len(rest) > 0 {
		m, tail, err := Decode(rest, 0)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		rebuilt = Append(rebuilt, m)
		rest = tail
	}
	if !bytes.Equal(stream, rebuilt) {
		t.Fatal("re-encoded stream differs from original")
	}
}

func TestDecodeEmptyIsEOF(t *testing.T) {
	if _, _, err := Decode(nil, 0); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestTruncatedFrames(t *testing.T) {
	frame := Encode(&UpdateMsg{Round: 3, Payload: []float64{1, 2, 3}, Weight: 1})
	for n := 1; n < len(frame); n++ {
		if _, _, err := Decode(frame[:n], 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode of %d/%d bytes: got %v, want ErrCorrupt", n, len(frame), err)
		}
		if _, err := ReadMsg(bytes.NewReader(frame[:n]), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadMsg of %d/%d bytes: got %v, want ErrCorrupt", n, len(frame), err)
		}
	}
}

func TestBadCRC(t *testing.T) {
	frame := Encode(&GlobalMsg{Round: 1, Payload: []float64{9}, Participants: 4})
	// Flip one bit in every byte position in turn; all must be detected as
	// one of the typed failures (header damage may surface as bad
	// magic/version/kind/length instead of a checksum mismatch).
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		_, _, err := Decode(bad, 0)
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrUnknownKind) && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("bit flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestUnknownVersion(t *testing.T) {
	frame := Encode(&JoinMsg{Name: "v2-client"})
	frame[4] = Version + 1
	if _, _, err := Decode(frame, 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	if _, err := ReadMsg(bytes.NewReader(frame), 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("ReadMsg: got %v, want ErrVersion", err)
	}
}

func TestUnknownKind(t *testing.T) {
	frame := Encode(&JoinMsg{Name: "x"})
	frame[5] = 0x7f
	if _, _, err := Decode(frame, 0); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

func TestPayloadOverLimit(t *testing.T) {
	frame := Encode(&UpdateMsg{Round: 1, Payload: make([]float64, 64), Weight: 1})
	if _, _, err := Decode(frame, 32); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Decode under tight limit: got %v, want ErrTooLarge", err)
	}
	if _, err := ReadMsg(bytes.NewReader(frame), 32); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadMsg under tight limit: got %v, want ErrTooLarge", err)
	}
	// The same frame decodes under the default limit.
	if _, _, err := Decode(frame, 0); err != nil {
		t.Fatalf("Decode under default limit: %v", err)
	}
}

// TestHostileMissedCount feeds the Welcome decoder a body whose missed
// count claims 2^40 entries backed by no bytes; the count must be rejected
// before any allocation happens.
func TestHostileMissedCount(t *testing.T) {
	var m WelcomeMsg
	frame := Encode(&m)
	body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
	// The missed count (0) sits before the codec (2 bytes), catch-up flag
	// (1) and mask generation (8); overwrite it with 1<<40.
	off := len(body) - 11 - 8
	for i := off; i < off+8; i++ {
		body[i] = 0
	}
	body[off+5] = 1 // little-endian byte 5 → 2^40
	if _, err := decodeBody(KindWelcome, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile missed count: got %v, want ErrCorrupt", err)
	}
}

func TestTrailingGarbageInBody(t *testing.T) {
	good := Encode(&JoinMsg{Name: "a"})
	// Rebuild the frame with one extra payload byte and a fixed-up CRC: the
	// body decoder must reject the leftovers.
	body := append([]byte(nil), good[headerLen:len(good)-trailerLen]...)
	body = append(body, 0)
	if _, err := decodeBody(KindJoin, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte in body: got %v, want ErrCorrupt", err)
	}
}

// TestCatchUpWelcomeVersion pins the catch-up handshake to the one
// Welcome layout: with and without CatchUp the frame carries Version and
// the same fields, so the two differ only in the field values.
func TestCatchUpWelcomeVersion(t *testing.T) {
	plain := Encode(&WelcomeMsg{Dim: 1, Init: []float64{1}, Round: 3})
	catch := Encode(&WelcomeMsg{Dim: 1, Init: []float64{1}, Round: 3, CatchUp: true, MaskGen: 2})
	for _, frame := range [][]byte{plain, catch} {
		if got := frame[4]; got != Version {
			t.Fatalf("welcome stamped version %d, want %d", got, Version)
		}
	}
	if len(plain) != len(catch) {
		t.Fatalf("plain welcome %d bytes, catch-up welcome %d bytes: want one layout", len(plain), len(catch))
	}
	got, _, err := Decode(catch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := got.(*WelcomeMsg); !w.CatchUp || w.MaskGen != 2 {
		t.Fatalf("catch-up fields lost: %+v", w)
	}
}

// TestHostileCatchUpCounts feeds the sketch and delta decoders bodies
// whose element counts claim 2^40 entries backed by no bytes; both must
// reject before allocating.
func TestHostileCatchUpCounts(t *testing.T) {
	for _, m := range []Msg{&SketchMsg{Round: 1, MaskGen: 1}, &DeltaMsg{Round: 1, MaskGen: 1}} {
		frame := Encode(m)
		body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
		// The final 8 bytes are the element count (0); overwrite with 2^40.
		for i := len(body) - 8; i < len(body); i++ {
			body[i] = 0
		}
		body[len(body)-3] = 1
		if _, err := decodeBody(m.WireKind(), body); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: hostile count: got %v, want ErrCorrupt", m.WireKind(), err)
		}
	}
	// A word generation beyond 2^32-1 is structural damage, not data.
	frame := Encode(&DeltaMsg{Round: 1, MaskGen: 1, Words: []core.WordBlock{{Word: 0, Gen: 1}}})
	body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
	// The empty word block is the final wordBlockMinLen bytes of the
	// body: word(8) gen(8) ... — flip the generation's high byte.
	genOff := len(body) - wordBlockMinLen + 8 + 7
	body[genOff] = 0xff
	if _, err := decodeBody(KindDelta, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized word generation: got %v, want ErrCorrupt", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindJoin: "join", KindWelcome: "welcome", KindUpdate: "update", KindGlobal: "global",
		KindResumeOffer: "resume-offer", KindSketch: "sketch", KindSnapshot: "snapshot",
		KindDelta: "delta", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}
