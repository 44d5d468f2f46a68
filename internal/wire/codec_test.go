package wire

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"apf/internal/checkpoint"
)

// bigPayload is a 1M-scalar model vector, the regime the round-level
// benchmark's dense workload lives in.
func bigPayload() []float64 {
	p := make([]float64, 1_000_000)
	for i := range p {
		p[i] = math.Float64frombits(uint64(i)*0x9e3779b97f4a7c15 | 1)
	}
	return p
}

// allocBytes returns the heap bytes f allocates per call, averaged over
// runs calls after one warm-up call.
func allocBytes(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestEncodeAllocatesOneFrame pins the one-pass encoder: a frame is
// sized before it is written, so encoding a 1M-scalar update or global
// allocates the frame once and nothing else of note.
func TestEncodeAllocatesOneFrame(t *testing.T) {
	p := bigPayload()
	for _, m := range []Msg{
		&UpdateMsg{Round: 3, Payload: p, Weight: 2, MaskHash: 7},
		&GlobalMsg{Round: 3, Payload: p, Participants: 2},
	} {
		frame := len(Encode(m))
		got := allocBytes(5, func() { _ = Encode(m) })
		if got > 1.01*float64(frame) {
			t.Errorf("%s: encoding allocates %.0f bytes for a %d-byte frame (%.2fx), want ≤ 1.01x",
				m.WireKind(), got, frame, got/float64(frame))
		}
	}
}

// TestReadBufferSteadyStateAllocs pins read-buffer reuse: once a
// ReadBuffer has seen a frame of a given size, reading another allocates
// only the decoded message.
func TestReadBufferSteadyStateAllocs(t *testing.T) {
	p := bigPayload()
	frame := Encode(&UpdateMsg{Round: 3, Payload: p, Weight: 2})
	var rb ReadBuffer
	rd := bytes.NewReader(frame)
	got := allocBytes(5, func() {
		rd.Reset(frame)
		if _, err := rb.ReadMsg(rd, 0); err != nil {
			t.Fatal(err)
		}
	})
	if payload := float64(8 * len(p)); got > 1.25*payload {
		t.Errorf("steady-state ReadMsg allocates %.0f bytes for a %.0f-byte payload (%.2fx), want ≤ 1.25x",
			got, payload, got/payload)
	}
}

// TestReadBufferNoAliasing decodes two frames through one ReadBuffer: the
// first message must not change when the second overwrites the buffer,
// for every kind that carries a column or a string.
func TestReadBufferNoAliasing(t *testing.T) {
	pairs := [][2]Msg{
		{&UpdateMsg{Round: 1, Payload: []float64{1, 2, 3}}, &UpdateMsg{Round: 2, Payload: []float64{4, 5, 6}}},
		{&GlobalMsg{Round: 1, Payload: []float64{1, 2}}, &GlobalMsg{Round: 2, Payload: []float64{3, 4}}},
		{&JoinMsg{Name: "alpha", SessionKey: "k1"}, &JoinMsg{Name: "omega", SessionKey: "k2"}},
		{&SparseUpdateMsg{Dim: 4, Enc: EncF16, Q: []uint16{1, 2}}, &SparseUpdateMsg{Dim: 4, Enc: EncF16, Q: []uint16{3, 4}}},
		{&PartialUpdateMsg{Round: 1, Cols: []uint64{1, 2}}, &PartialUpdateMsg{Round: 2, Cols: []uint64{3, 4}}},
		{&SnapshotMsg{Round: 1, Payload: []float64{1}, Manager: []byte{1, 2}},
			&SnapshotMsg{Round: 2, Payload: []float64{2}, Manager: []byte{3, 4}}},
		{&ResumeOfferMsg{Words: []int{1, 2}}, &ResumeOfferMsg{Words: []int{3, 4}}},
	}
	for _, pair := range pairs {
		var stream []byte
		stream = Append(stream, pair[0])
		stream = Append(stream, pair[1])
		rd := bytes.NewReader(stream)
		var rb ReadBuffer
		a, err := rb.ReadMsg(rd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rb.ReadMsg(rd, 0); err != nil {
			t.Fatal(err)
		}
		sameMsg(t, pair[0], a)
	}
}

// corpusInputs returns the []byte input of every checked-in fuzz corpus
// file under dir whose name starts with "valid-" or "seed-".
func corpusInputs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, path := range paths {
		name := filepath.Base(path)
		if !strings.HasPrefix(name, "valid-") && !strings.HasPrefix(name, "seed-") {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-input []byte corpus file", path)
		}
		in, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[path] = []byte(in)
	}
	if len(out) == 0 {
		t.Fatalf("no valid-*/seed-* corpus files under %s", dir)
	}
	return out
}

// TestCorpusReencodesByteIdentical replays the checked-in fuzz corpora
// of the frame codecs: every frame of every valid-*/seed-* input decodes,
// and the encoder rebuilds the input from the decoded messages byte for
// byte, so the frame and snapshot layouts are the ones the corpora were
// recorded with.
func TestCorpusReencodesByteIdentical(t *testing.T) {
	for _, dir := range []string{
		"testdata/fuzz/FuzzWireDecode",
		"../transport/testdata/fuzz/FuzzServerDecode",
		"../transport/testdata/fuzz/FuzzClientDecode",
	} {
		for path, in := range corpusInputs(t, dir) {
			var out []byte
			for rest := in; len(rest) > 0; {
				m, next, err := Decode(rest, 0)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				out, rest = Append(out, m), next
			}
			if !bytes.Equal(out, in) {
				t.Errorf("%s: re-encoding differs:\n in  %x\n out %x", path, in, out)
			}
		}
	}

	// The checkpoint seeds include deliberately damaged frames (a foreign
	// version, bad magic, a torn tail): every frame up to the first
	// damaged one must re-encode byte for byte.
	managers := 0
	for path, in := range corpusInputs(t, "../checkpoint/testdata/fuzz/FuzzCheckpointDecode") {
		var out []byte
		rest := in
		for {
			kind, payload, next, err := checkpoint.ReadFrame(rest)
			if err != nil {
				break
			}
			frame := rest[:len(rest)-len(next)]
			if s, err := checkpoint.DecodeManager(frame); kind == checkpoint.KindManager && err == nil {
				out = append(out, checkpoint.EncodeManager(s)...)
				managers++
			} else {
				out = checkpoint.AppendFrame(out, kind, payload)
			}
			rest = next
		}
		if read := in[:len(in)-len(rest)]; !bytes.Equal(out, read) {
			t.Errorf("%s: re-encoding differs:\n in  %x\n out %x", path, read, out)
		}
	}
	if managers == 0 {
		t.Error("no manager snapshot in the checkpoint corpus")
	}
}
