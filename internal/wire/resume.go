package wire

import (
	"fmt"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/recon"
)

// This file is the O(diff) catch-up sub-protocol. A resuming client
// whose round fell off the server's bounded replay history receives a
// Welcome with CatchUp set and then drives:
//
//	client                          server
//	ResumeOffer{Round, MaskGen}  →
//	                             ←  Sketch{Cells...}      (sketch mode)
//	ResumeOffer{NeedMore}        →                        (not decoded yet)
//	                             ←  Sketch{Cells...}
//	ResumeOffer{Words: [...]}    →                        (decoded)
//	                             ←  Delta{Header, Words}
//	— or —
//	                             ←  Snapshot{Payload, Manager}
//
// A ResumeOffer with MaskGen -1 requests the snapshot mode outright
// (managers without reconciliation state, and relays adopting the
// root's round).

// CapRecon is the capability bit a client advertises in JoinMsg.Caps
// when its manager supports sketch reconciliation (per-word generation
// tracking and word-block import).
const CapRecon uint64 = 1 << 2

// ResumeOfferMsg is the client's catch-up move. Exactly one of three
// forms: the opening offer (NeedMore false, Words nil), a request for
// more sketch cells (NeedMore true), or the decoded diff (Words set to
// the mask-word indices whose state the client needs).
type ResumeOfferMsg struct {
	// Round is the last round the client has applied.
	Round int
	// MaskGen is the client's mask generation; -1 requests snapshot
	// catch-up unconditionally.
	MaskGen int
	// NeedMore asks for another sketch batch.
	NeedMore bool
	// Words, when non-nil, closes sketch mode: the decoded diff.
	Words []int
}

// SketchMsg streams one batch of rateless coded cells over the
// server's (word, generation) set, starting at stream index Start.
type SketchMsg struct {
	Round   int
	MaskGen int
	Start   int
	Cells   []recon.Cell
}

// SnapshotMsg ships the server's full current state in one bounded
// frame: the canonical post-round model plus (for stateful managers)
// the manager snapshot in its durable encoding. Cost is O(dim)
// regardless of how long the client was away.
type SnapshotMsg struct {
	Round   int
	MaskGen int
	// Payload is the canonical post-ApplyDownload model at Round.
	Payload []float64
	// Manager is the checkpoint-encoded core manager state
	// (checkpoint.EncodeManager); empty for stateless managers, which
	// need only Round and Payload.
	Manager []byte
}

// DeltaMsg closes sketch mode: the manager-global header plus the full
// state of exactly the words the client's ResumeOffer listed.
type DeltaMsg struct {
	Round   int
	MaskGen int
	Header  core.SyncHeader
	Words   []core.WordBlock
}

// WireKind implements Msg.
func (*ResumeOfferMsg) WireKind() Kind { return KindResumeOffer }

// WireKind implements Msg.
func (*SketchMsg) WireKind() Kind { return KindSketch }

// WireKind implements Msg.
func (*SnapshotMsg) WireKind() Kind { return KindSnapshot }

// WireKind implements Msg.
func (*DeltaMsg) WireKind() Kind { return KindDelta }

func (m *ResumeOfferMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.Bool(m.NeedMore)
	w.Bool(m.Words != nil)
	if m.Words != nil {
		w.Ints(m.Words)
	}
}

func readResumeOffer(r *checkpoint.Reader) *ResumeOfferMsg {
	m := &ResumeOfferMsg{Round: r.Int(), MaskGen: r.Int(), NeedMore: r.Bool()}
	if r.Bool() {
		m.Words = r.Ints()
		if m.Words == nil {
			m.Words = []int{}
		}
	}
	return m
}

// cellLen is the encoded size of one coded cell (sum, hash, count).
const cellLen = 24

func (m *SketchMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.Int(m.Start)
	w.Int(len(m.Cells))
	for _, c := range m.Cells {
		w.U64(uint64(c.Sum))
		w.U64(c.Hash)
		w.U64(uint64(c.Count))
	}
}

func readSketch(r *checkpoint.Reader) *SketchMsg {
	m := &SketchMsg{Round: r.Int(), MaskGen: r.Int(), Start: r.Int()}
	n := r.Int()
	if r.Err() != nil {
		return m
	}
	if n < 0 || n > r.Remaining()/cellLen {
		r.Fail("sketch cell count overruns frame")
		return m
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Cells = append(m.Cells, recon.Cell{
			Sum:   recon.Symbol(r.U64()),
			Hash:  r.U64(),
			Count: int64(r.U64()),
		})
	}
	return m
}

func (m *SnapshotMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.F64s(m.Payload)
	w.String(string(m.Manager))
}

func readSnapshot(r *checkpoint.Reader) *SnapshotMsg {
	m := &SnapshotMsg{Round: r.Int(), MaskGen: r.Int(), Payload: r.F64s()}
	if s := r.String(); s != "" {
		m.Manager = []byte(s)
	}
	return m
}

// wordBlockMinLen is the encoded size of a WordBlock with empty slices
// (word + gen + seeded + six float-slice prefixes + two int-slice
// prefixes, 8 bytes each); it bounds hostile word counts before
// allocation.
const wordBlockMinLen = 88

func appendWordBlock(w *checkpoint.Writer, b *core.WordBlock) {
	w.Int(b.Word)
	w.U64(uint64(b.Gen))
	w.U64(b.Seeded)
	w.F64s(b.X)
	w.F64s(b.Ref)
	w.F64s(b.LastCheck)
	w.F64s(b.E)
	w.F64s(b.A)
	w.F64s(b.Period)
	w.Ints(b.UnfreezeAt)
	w.Ints(b.RandomUntil)
}

func readWordBlock(r *checkpoint.Reader) core.WordBlock {
	b := core.WordBlock{Word: r.Int()}
	gen := r.U64()
	if r.Err() == nil && gen > 1<<32-1 {
		r.Fail(fmt.Sprintf("word generation %d out of range", gen))
		return b
	}
	b.Gen = uint32(gen)
	b.Seeded = r.U64()
	b.X = r.F64s()
	b.Ref = r.F64s()
	b.LastCheck = r.F64s()
	b.E = r.F64s()
	b.A = r.F64s()
	b.Period = r.F64s()
	b.UnfreezeAt = r.Ints()
	b.RandomUntil = r.Ints()
	return b
}

func (m *DeltaMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.MaskGen)
	w.F64(m.Header.Threshold)
	w.Int(m.Header.CheckCount)
	w.Int(m.Header.Seen)
	w.Bool(m.Header.Initialized)
	w.Int(m.Header.InitRound)
	w.Int(m.Header.LastRound)
	w.Int(len(m.Words))
	for i := range m.Words {
		appendWordBlock(w, &m.Words[i])
	}
}

func readDelta(r *checkpoint.Reader) *DeltaMsg {
	m := &DeltaMsg{Round: r.Int(), MaskGen: r.Int()}
	m.Header.Threshold = r.F64()
	m.Header.CheckCount = r.Int()
	m.Header.Seen = r.Int()
	m.Header.Initialized = r.Bool()
	m.Header.InitRound = r.Int()
	m.Header.LastRound = r.Int()
	n := r.Int()
	if r.Err() != nil {
		return m
	}
	if n < 0 || n > r.Remaining()/wordBlockMinLen {
		r.Fail("delta word count overruns frame")
		return m
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Words = append(m.Words, readWordBlock(r))
	}
	return m
}
