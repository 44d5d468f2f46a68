package wire

import "apf/internal/checkpoint"

// RelayJoinMsg registers an edge relay with the root, or resumes a relay
// session. It is the relay-tier analogue of JoinMsg: the root answers with
// the same WelcomeMsg a client would get (geometry, init model, missed
// rounds), but the session collects PartialUpdateMsg pushes instead of
// per-client updates. Relay↔root traffic is always dense — a relay folds
// whatever its clients negotiated back into exact fixed-point columns — so
// the message advertises no codec capabilities.
type RelayJoinMsg struct {
	Name string
	// SessionKey identifies a resumable relay session, exactly as on
	// JoinMsg. Empty registers a fresh anonymous session.
	SessionKey string
	// HaveRound is the last round the relay has applied (-1 when none).
	HaveRound int
	// Clients is the number of client sessions the relay intends to
	// terminate — advisory capacity information the root exposes through
	// telemetry; the authoritative per-round count rides on each
	// PartialUpdateMsg.
	Clients int
}

// PartialUpdateMsg carries one relay's pre-aggregated round contribution:
// the exact 128-bit fixed-point partial sum over its accepted client
// updates (fl.Partial). Because the accumulator is an integer, the root's
// merge is bit-exact under any client→relay partitioning; Count and the
// weight words travel alongside so weighted FedAvg divides by the true
// totals.
type PartialUpdateMsg struct {
	Round int
	// Count is the number of client contributions folded into the sum.
	Count int
	// WeightLo/WeightHi are the Q64.64 fixed-point total client weight
	// (fl.Partial's weight words, little-end first).
	WeightLo, WeightHi uint64
	// MaskHash is the freezing-mask hash shared by every client folded
	// into this partial; the root rejects rounds whose relays disagree,
	// exactly as it does for direct clients (transport.ErrMaskDivergence).
	MaskHash uint64
	// Cols is the per-coordinate accumulator: 2 words per model
	// coordinate, lo at 2j and hi at 2j+1 (fl.Partial.Cols verbatim).
	Cols []uint64
}

// WireKind implements Msg.
func (*RelayJoinMsg) WireKind() Kind { return KindRelayJoin }

// WireKind implements Msg.
func (*PartialUpdateMsg) WireKind() Kind { return KindPartialUpdate }

// appendBody serializes a RelayJoinMsg body.
func (m *RelayJoinMsg) appendBody(w *checkpoint.Writer) {
	w.String(m.Name)
	w.String(m.SessionKey)
	w.Int(m.HaveRound)
	w.Int(m.Clients)
}

// readRelayJoin decodes a RelayJoinMsg body.
func readRelayJoin(r *checkpoint.Reader) *RelayJoinMsg {
	m := &RelayJoinMsg{
		Name:       r.String(),
		SessionKey: r.String(),
		HaveRound:  r.Int(),
		Clients:    r.Int(),
	}
	if r.Err() == nil && m.Clients < 0 {
		r.Fail("negative relay client count")
	}
	return m
}

// appendBody serializes a PartialUpdateMsg body.
func (m *PartialUpdateMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.Count)
	w.U64(m.WeightLo)
	w.U64(m.WeightHi)
	w.U64(m.MaskHash)
	w.U64s(m.Cols)
}

// readPartialUpdate decodes a PartialUpdateMsg body. The column count is
// bounded against the remaining payload before allocation
// (checkpoint.Reader.U64s), and structural invariants — non-negative
// count, an even number of accumulator words — fail the reader rather
// than escape into the aggregation path.
func readPartialUpdate(r *checkpoint.Reader) *PartialUpdateMsg {
	m := &PartialUpdateMsg{
		Round:    r.Int(),
		Count:    r.Int(),
		WeightLo: r.U64(),
		WeightHi: r.U64(),
		MaskHash: r.U64(),
		Cols:     r.U64s(),
	}
	if r.Err() != nil {
		return m
	}
	if m.Count < 0 {
		r.Fail("negative partial-update count")
		return m
	}
	if len(m.Cols)%2 != 0 {
		r.Fail("odd accumulator word count")
	}
	return m
}
