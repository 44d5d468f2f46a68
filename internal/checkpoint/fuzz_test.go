package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at every decode surface of
// the package: the frame reader and the manager codec. Invariants: no
// panic, no over-allocation (the length guards bound slices by the
// payload), and a manager frame that decodes re-encodes to exactly the
// input bytes — the codec has one layout, so no state has two encodings.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, KindUser, []byte("payload")))
	f.Add(EncodeManager(testManagerState()))
	// A snapshot frame followed by a WAL record: the frame walk reads
	// both, and the manager decoder must refuse the trailing frame.
	f.Add(AppendFrame(EncodeManager(testManagerState()), KindUser, []byte("record")))
	var w Writer
	w.Int(1 << 50) // absurd length claim: must be bounded, not allocated
	f.Add(AppendFrame(nil, KindManager, w.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame stream: walk every frame, as Store.replayWAL does.
		buf := data
		for i := 0; i < 1000; i++ {
			_, payload, rest, err := ReadFrame(buf)
			if err != nil {
				break
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte input", len(payload), len(data))
			}
			buf = rest
		}

		if s, err := DecodeManager(data); err == nil {
			if out := EncodeManager(s); !bytes.Equal(out, data) {
				t.Fatalf("manager decode/encode not canonical:\n in  %x\n out %x", data, out)
			}
		}
	})
}
