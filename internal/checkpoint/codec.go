package checkpoint

import (
	"fmt"

	"apf/internal/core"
	"apf/internal/perturb"
)

// EncodeManager frames a core.State manager snapshot (KindManager). The
// encoding is bit-exact: every float64 round-trips through its IEEE-754
// bits, so a restored manager continues the freezing protocol from the
// identical EMAs, periods, and threshold.
func EncodeManager(s *core.State) []byte {
	return AppendFrame(nil, KindManager, Encode(func(w *Writer) {
		w.Int(s.Dim)
		w.F64s(s.Ref)
		w.F64s(s.LastCheck)
		w.F64(s.Tracker.Alpha)
		w.F64s(s.Tracker.E)
		w.F64s(s.Tracker.A)
		w.Int(s.Tracker.Seen)
		w.U64s(s.Tracker.Seeded)
		w.F64s(s.Period)
		w.Ints(s.UnfreezeAt)
		w.Ints(s.RandomUntil)
		w.F64(s.Threshold)
		w.Int(s.CheckCount)
		w.Bool(s.Initialized)
		w.Int(s.InitRound)
		w.Int(s.LastRound)
		w.Int(len(s.WordGen))
		for _, g := range s.WordGen {
			w.Int(int(g))
		}
	}))
}

// DecodeManager reads an EncodeManager frame back into a core.State,
// verifying checksum, version, kind, and structure.
func DecodeManager(buf []byte) (*core.State, error) {
	kind, payload, rest, err := ReadFrame(buf)
	if err != nil {
		return nil, err
	}
	if kind != KindManager {
		return nil, fmt.Errorf("%w: frame kind %d, want manager (%d)", ErrCorrupt, kind, KindManager)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after manager frame", ErrCorrupt, len(rest))
	}
	r := NewReader(payload)
	s := &core.State{}
	s.Dim = r.Int()
	s.Ref = r.F64s()
	s.LastCheck = r.F64s()
	s.Tracker = perturb.EMAState{
		Alpha:  r.F64(),
		E:      r.F64s(),
		A:      r.F64s(),
		Seen:   r.Int(),
		Seeded: r.U64s(),
	}
	s.Period = r.F64s()
	s.UnfreezeAt = r.Ints()
	s.RandomUntil = r.Ints()
	s.Threshold = r.F64()
	s.CheckCount = r.Int()
	s.Initialized = r.Bool()
	s.InitRound = r.Int()
	s.LastRound = r.Int()
	gens := r.Ints()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		s.WordGen = make([]uint32, len(gens))
		for i, g := range gens {
			if g < 0 || g > 1<<32-1 {
				return nil, fmt.Errorf("%w: word generation %d out of range", ErrCorrupt, g)
			}
			s.WordGen[i] = uint32(g)
		}
	}
	return s, nil
}
