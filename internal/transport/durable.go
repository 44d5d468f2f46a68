package transport

import (
	"fmt"

	"apf/internal/checkpoint"
	"apf/internal/wire"
)

// Checkpoint frame kinds used by the server, in the KindUser space of
// package checkpoint. The values are pinned: they are on disk.
const (
	// kindServerSnap frames a full server snapshot: geometry, session
	// table, aggregate history, accounting.
	kindServerSnap = checkpoint.KindUser
	// kindWALGlobal records one emitted GlobalMsg — the commit record of
	// its round and the WAL's only record kind. A round is durable exactly
	// when its global record is.
	kindWALGlobal = checkpoint.KindUser + 2
)

// Typed recovery failures. Each also matches checkpoint.ErrCorrupt: a
// snapshot that fails one was not written by this build's server.
var (
	// ErrShadowLength marks a snapshot whose shadow-replica model length
	// differs from the model dimension.
	ErrShadowLength = fmt.Errorf("%w: shadow replica length differs from the model dimension", checkpoint.ErrCorrupt)
	// ErrShadowRound marks a snapshot whose shadow replica claims a round
	// past the last committed one.
	ErrShadowRound = fmt.Errorf("%w: shadow replica round past the last committed round", checkpoint.ErrCorrupt)
	// ErrQuarantineRounds marks a snapshot whose validator quarantine
	// rounds do not cover exactly the cluster.
	ErrQuarantineRounds = fmt.Errorf("%w: quarantine rounds do not cover the cluster", checkpoint.ErrCorrupt)
)

// serverState is the decoded form of a server snapshot: everything a
// restarted coordinator needs to resume the run bit-exactly (the session
// table keeps client ids stable across the restart; the history feeds
// both resume replay and the round counter).
type serverState struct {
	// NumClients is the size of the tier this server terminates: clients
	// on a flat coordinator, relays on the hierarchy's root.
	NumClients int
	Rounds     int
	Init       []float64
	Keys       []string // session keys by client id
	Names      []string // session names by client id
	History    []GlobalMsg
	// PartialRounds preserves the partial-aggregation count across
	// restarts so accounting reflects the whole run.
	PartialRounds int
	// Validator carries the sanitization state (nil when sanitization is
	// disabled). Persisting it keeps quarantined clients out and the norm
	// gate armed across a restart; granularity is the snapshot cadence —
	// strikes charged since the last rotation are lost with the crash.
	Validator *validatorState
	// Catch-up state. HistoryBase is the round of History[0];
	// ShadowRound/Shadow/ShadowX persist the catch-up shadow replica
	// (round -1 and empty when none was usable at snapshot time).
	HistoryBase int
	ShadowRound int
	Shadow      []byte
	ShadowX     []float64
}

// validatorState is the durable slice of a Validator: strike counters,
// quarantine flags and rounds, the rolling accepted-norm history
// (chronological, oldest first), and the cosine gate's reference
// direction with its commit count.
type validatorState struct {
	Strikes   []int
	Quar      []bool
	Norms     []float64
	Ref       []float64
	RefCount  int
	QuarRound []int
}

// encodeServerState frames the snapshot payload (without the outer frame;
// checkpoint.Store adds it).
func encodeServerState(s *serverState) []byte {
	return checkpoint.Encode(func(w *checkpoint.Writer) {
		w.Int(s.NumClients)
		w.Int(s.Rounds)
		w.F64s(s.Init)
		w.Int(len(s.Keys))
		for i := range s.Keys {
			w.String(s.Keys[i])
			w.String(s.Names[i])
		}
		w.Int(len(s.History))
		for i := range s.History {
			wire.AppendGlobalBody(w, &s.History[i])
		}
		w.Int(s.PartialRounds)
		w.Bool(s.Validator != nil)
		if v := s.Validator; v != nil {
			w.Ints(v.Strikes)
			w.Int(len(v.Quar))
			for _, q := range v.Quar {
				w.Bool(q)
			}
			w.F64s(v.Norms)
			w.F64s(v.Ref)
			w.Int(v.RefCount)
			w.Ints(v.QuarRound)
		}
		w.Int(s.HistoryBase)
		w.Int(s.ShadowRound)
		w.ByteString(s.Shadow)
		w.F64s(s.ShadowX)
	})
}

// decodeServerState reads a snapshot payload back.
func decodeServerState(payload []byte) (*serverState, error) {
	r := checkpoint.NewReader(payload)
	s := &serverState{}
	s.NumClients = r.Int()
	s.Rounds = r.Int()
	s.Init = r.F64s()
	nSess := r.Int()
	if r.Err() == nil && (nSess < 0 || nSess > len(payload)) {
		return nil, fmt.Errorf("%w: session count %d", checkpoint.ErrCorrupt, nSess)
	}
	for i := 0; i < nSess && r.Err() == nil; i++ {
		s.Keys = append(s.Keys, r.String())
		s.Names = append(s.Names, r.String())
	}
	nHist := r.Int()
	if r.Err() == nil && (nHist < 0 || nHist > len(payload)) {
		return nil, fmt.Errorf("%w: history count %d", checkpoint.ErrCorrupt, nHist)
	}
	for i := 0; i < nHist && r.Err() == nil; i++ {
		s.History = append(s.History, wire.ReadGlobalBody(r))
	}
	s.PartialRounds = r.Int()
	if r.Bool() && r.Err() == nil {
		v := &validatorState{Strikes: r.Ints()}
		nQuar := r.Int()
		if r.Err() == nil && (nQuar < 0 || nQuar > len(payload)) {
			return nil, fmt.Errorf("%w: quarantine count %d", checkpoint.ErrCorrupt, nQuar)
		}
		for i := 0; i < nQuar && r.Err() == nil; i++ {
			v.Quar = append(v.Quar, r.Bool())
		}
		v.Norms = r.F64s()
		v.Ref = r.F64s()
		v.RefCount = r.Int()
		v.QuarRound = r.Ints()
		s.Validator = v
	}
	s.HistoryBase = r.Int()
	s.ShadowRound = r.Int()
	if b := r.String(); b != "" {
		s.Shadow = []byte(b)
	}
	s.ShadowX = r.F64s()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(s.Keys) != len(s.Names) {
		return nil, fmt.Errorf("%w: inconsistent session table", checkpoint.ErrCorrupt)
	}
	if s.HistoryBase < 0 {
		return nil, fmt.Errorf("%w: negative history base %d", checkpoint.ErrCorrupt, s.HistoryBase)
	}
	return s, nil
}

// encodeWALGlobal frames one emitted aggregate for the WAL, in the same
// body encoding the socket uses.
func encodeWALGlobal(g *GlobalMsg) []byte {
	return checkpoint.Encode(func(w *checkpoint.Writer) { wire.AppendGlobalBody(w, g) })
}

// decodeWALGlobal reads a global record back.
func decodeWALGlobal(payload []byte) (*GlobalMsg, error) {
	r := checkpoint.NewReader(payload)
	g := wire.ReadGlobalBody(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &g, nil
}

// recoverState loads the newest consistent snapshot from the store and
// rolls its WAL forward: global records extend the aggregate history in
// round order. The round left open by the crash was never logged — it
// re-opens and the idempotent client (or relay) re-sends repopulate it.
// A record of any other kind was not written by this build and fails
// recovery with checkpoint.ErrCorrupt. Returns nil state when the store is
// empty. rootTier disables the partial-round re-derivation for
// rolled-forward globals: on the root tier Participants counts underlying
// clients while NumClients counts relays, so the comparison is meaningless
// there (the live commit path records the flag correctly either way).
func recoverState(store *checkpoint.Store, rootTier bool) (*serverState, error) {
	_, kind, payload, wal, found, err := store.Load()
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	if kind != kindServerSnap {
		return nil, fmt.Errorf("%w: snapshot frame kind %d, want %d", checkpoint.ErrCorrupt, kind, kindServerSnap)
	}
	st, err := decodeServerState(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decode snapshot: %w", err)
	}
	for _, rec := range wal {
		if rec.Kind != kindWALGlobal {
			return nil, fmt.Errorf("transport: %w: wal record kind %d, want %d", checkpoint.ErrCorrupt, rec.Kind, kindWALGlobal)
		}
		g, err := decodeWALGlobal(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("transport: decode wal global: %w", err)
		}
		if g.Round != st.HistoryBase+len(st.History) {
			// Replays of rounds the snapshot already holds (or gaps,
			// which cannot happen with ordered appends) are skipped
			// rather than corrupting the history.
			continue
		}
		st.History = append(st.History, *g)
		if !rootTier && g.Participants < st.NumClients {
			st.PartialRounds++
		}
	}
	return st, nil
}

// verifyRecovered checks a recovered state against the configured run:
// a checkpoint from a different geometry (cluster size, round count,
// model) must never silently resume.
func verifyRecovered(st *serverState, cfg ServerConfig) error {
	if st.NumClients != cfg.peers() || st.Rounds != cfg.Rounds || len(st.Init) != len(cfg.Init) {
		return fmt.Errorf("transport: checkpoint geometry peers=%d rounds=%d dim=%d does not match config peers=%d rounds=%d dim=%d",
			st.NumClients, st.Rounds, len(st.Init), cfg.peers(), cfg.Rounds, len(cfg.Init))
	}
	for j := range st.Init {
		if st.Init[j] != cfg.Init[j] {
			return fmt.Errorf("transport: checkpoint init vector differs from config at scalar %d", j)
		}
	}
	if len(st.Keys) != st.NumClients {
		// The base snapshot is only written once registration completes,
		// so a valid checkpoint always carries the full session table.
		return fmt.Errorf("transport: checkpoint session table has %d entries for %d clients", len(st.Keys), st.NumClients)
	}
	if st.HistoryBase+len(st.History) > st.Rounds {
		return fmt.Errorf("transport: checkpoint history reaches round %d of a %d-round run",
			st.HistoryBase+len(st.History), st.Rounds)
	}
	if v := st.Validator; v != nil {
		if len(v.Strikes) != st.NumClients || len(v.Quar) != st.NumClients {
			return fmt.Errorf("transport: checkpoint validator state covers %d strike / %d quarantine entries for %d clients",
				len(v.Strikes), len(v.Quar), st.NumClients)
		}
		if len(v.QuarRound) != st.NumClients {
			return fmt.Errorf("transport: %w: %d entries for %d clients", ErrQuarantineRounds, len(v.QuarRound), st.NumClients)
		}
	}
	if last := st.HistoryBase + len(st.History) - 1; st.ShadowRound < -1 || st.ShadowRound > last {
		return fmt.Errorf("transport: %w: shadow round %d, last committed %d", ErrShadowRound, st.ShadowRound, last)
	}
	if st.ShadowRound >= 0 && len(st.ShadowX) != len(st.Init) {
		return fmt.Errorf("transport: %w: %d scalars for dimension %d", ErrShadowLength, len(st.ShadowX), len(st.Init))
	}
	return nil
}
