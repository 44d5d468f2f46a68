package fl

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Aggregator reduces one round of client contributions to their weighted
// mean. The mean is the exact fixed-point reduction defined in exact.go:
// every product is converted to a 128-bit fixed-point integer and summed
// exactly, so the result is bit-identical regardless of worker count,
// scheduling, arrival order, or how the clients are partitioned across
// relay pre-aggregators.
//
// A round is collected incrementally (Open/Add/Reduce). In the default
// mean mode Add validates each contribution — a NaN or Inf scalar or
// weight yields a typed ErrNonFinite, a product outside the accumulator's
// range ErrOutOfRange, and neither changes any state — and folds it into
// the round's Partial at once, sharded over a persistent worker pool.
// Nothing is retained, so memory stays O(dim) however many clients a
// round collects. ExportPartial hands the folded state upstream (the relay
// face), and AddPartial folds relay partials in (the root face); because
// the underlying sums are exact integers, a root's Reduce is bit-identical
// to a flat aggregator having collected every client directly.
//
// The trimmed reduction (SetReduction) is the one mode that keeps every
// client's payload until Reduce, because it needs every value of each
// coordinate.
//
// An Aggregator is not safe for concurrent use; it reuses internal job
// state across calls to keep the steady state allocation-free.
type Aggregator struct {
	pool    *workerPool
	ownPool bool

	// Job state for the sharded fold, mean, or trimmed mean in flight
	// (published to the workers via the pool's Do barrier).
	dst      []float64 // mean output
	src      []float64 // contribution being folded
	srcW     float64   // its weight
	wf       float64   // correctly-rounded float of the exact total weight
	chunk    int
	bad      []int       // per fold shard: first refused index, -1 if none
	overflow atomic.Bool // a fold shard overflowed its columns

	// Bound once so Do allocates nothing per call.
	foldFn, unfoldFn, meanFn func(int)

	// Reduction mode (SetReduction) plus the trimmed path's job state and
	// per-chunk scratch columns — reused across rounds, so the steady
	// state stays allocation-free.
	reduction            Reduction
	trimFrac             float64
	tContribs            [][]float64
	tWeights             []float64
	trimScratch          [][]trimPair
	trimDepth            int
	lastTrimK, lastTrimM int
	runTrimFn            func(int)

	// In-flight round state (Open/Add/Reduce). psum holds a mean round's
	// exact sums; pMode marks a round collected from relay partials via
	// AddPartial (pCount sums their client counts). Trimmed rounds store
	// their payloads in slots instead.
	open     bool
	round    int
	seen     []bool // contributed this round, by id
	received int
	psum     Partial
	pMode    bool
	pCount   int
	slots    [][]float64
	slotW    []float64
}

// NewAggregator builds an aggregator over its own pool of the given worker
// count (<= 0 means GOMAXPROCS). Close must be called to release the pool.
func NewAggregator(workers int) *Aggregator {
	return newAggregatorOn(newWorkerPool(workers), true)
}

func newAggregatorOn(pool *workerPool, own bool) *Aggregator {
	a := &Aggregator{pool: pool, ownPool: own}
	a.foldFn = a.foldChunk
	a.unfoldFn = a.unfoldChunk
	a.meanFn = a.meanChunk
	a.runTrimFn = a.runTrimChunk
	return a
}

// minChunk keeps shards coarse enough that the per-task dispatch cost stays
// negligible against the arithmetic.
const minChunk = 4096

// shard sets the shard size for dim coordinates — about four shards per
// worker, none below minChunk — and returns the shard count.
func (a *Aggregator) shard(dim int) int {
	chunk := (dim + a.pool.workers*4 - 1) / (a.pool.workers * 4)
	if chunk < minChunk {
		chunk = minChunk
	}
	a.chunk = chunk
	return (dim + chunk - 1) / chunk
}

// run executes fn over n shards: inline when one suffices (too small to
// be worth the barrier), otherwise across the pool.
func (a *Aggregator) run(n int, fn func(int)) {
	if n <= 1 {
		fn(0)
		return
	}
	a.pool.Do(n, fn)
}

// span returns shard ci's coordinate range within dim.
func (a *Aggregator) span(ci, dim int) (lo, hi int) {
	lo = ci * a.chunk
	return lo, min(lo+a.chunk, dim)
}

// fold validates one contribution and folds it into the round's partial
// in one pass, sharded over the pool. Integer addition is associative, so
// the shard boundaries and the worker schedule cannot affect the bits. A
// refused scalar stops its shard, and every shard's additions are then
// subtracted back out, so the refusal leaves the round as it was.
func (a *Aggregator) fold(contrib []float64, weight float64) error {
	if err := a.psum.prepare(contrib, weight); err != nil {
		return err
	}
	n := a.shard(len(contrib))
	a.bad = slices.Grow(a.bad[:0], max(n, 1))[:max(n, 1)] // every shard writes its entry
	a.src, a.srcW = contrib, weight
	a.overflow.Store(false)
	a.run(n, a.foldFn)
	bad := -1
	for _, b := range a.bad {
		if b >= 0 {
			bad = b // shards are in coordinate order: the first is the lowest
			a.run(n, a.unfoldFn)
			break
		}
	}
	a.src = nil
	return a.psum.settle(contrib, weight, bad, a.overflow.Load())
}

func (a *Aggregator) foldChunk(ci int) {
	lo, hi := a.span(ci, len(a.src))
	bad, overflow := a.psum.foldRange(a.src, a.srcW, lo, hi)
	a.bad[ci] = bad
	if overflow {
		a.overflow.Store(true)
	}
}

// unfoldChunk takes back a shard that folded completely; a shard that
// refused a scalar took itself back.
func (a *Aggregator) unfoldChunk(ci int) {
	if a.bad[ci] < 0 {
		lo, hi := a.span(ci, len(a.src))
		a.psum.foldRange(a.src, -a.srcW, lo, hi)
	}
}

// mean writes the round partial's exact mean into dst, sharded over the
// pool; false (dst untouched) when nothing aggregates.
func (a *Aggregator) mean(dst []float64) bool {
	w, ok := a.psum.total(dst)
	if !ok {
		return false
	}
	a.dst, a.wf = dst, w
	a.run(a.shard(len(dst)), a.meanFn)
	a.dst = nil
	return true
}

func (a *Aggregator) meanChunk(ci int) {
	lo, hi := a.span(ci, len(a.dst))
	a.psum.meanRange(a.dst, a.wf, lo, hi)
}

// WeightedMean fills dst with the exact weighted mean of the
// contributions: dst[j] = float64(Σ_k fix(w_k·c_k[j])) / float64(Σ_k
// fix(w_k)), skipping clients with weight 0 (their contrib may be nil —
// e.g. inactive clients under partial participation). It is a one-shot
// round through the same sharded fold Add uses, so it must not be called
// while a mean round is open. When a contribution fails Add's validation,
// or the total weight is not strictly positive, nothing aggregates: dst is
// left untouched and false is returned. Every contribution must match
// dst's length.
func (a *Aggregator) WeightedMean(dst []float64, contribs [][]float64, weights []float64) bool {
	if a.open && a.reduction == ReduceMean {
		panic("fl: WeightedMean inside an open mean round")
	}
	a.psum.Reset()
	for k, w := range weights {
		if w != 0 && a.fold(contribs[k], w) != nil {
			return false
		}
	}
	return a.mean(dst)
}

// Close releases the aggregator's pool (when it owns one).
func (a *Aggregator) Close() {
	if a.ownPool {
		a.pool.Close()
	}
}

// ErrNonFinite is returned (wrapped) by Add when a contribution carries a
// NaN or Inf scalar or weight. One poisoned client must never fold into
// the shards: a single non-finite scalar contaminates the global model
// and every downstream stability statistic.
var ErrNonFinite = errors.New("fl: non-finite contribution")

// ErrLengthMismatch is returned (wrapped) by Add when a contribution's
// length disagrees with one already collected for the round — positionally
// aligned averaging is meaningless across different geometries.
var ErrLengthMismatch = errors.New("fl: payload length mismatch")

// Open begins incremental collection of one round with n client slots,
// discarding any round still in flight. Buffers are reused across rounds.
func (a *Aggregator) Open(round, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("fl: invalid client count %d", n))
	}
	if cap(a.seen) < n {
		a.seen = make([]bool, n)
	}
	a.seen = a.seen[:n]
	clear(a.seen)
	if a.reduction == ReduceTrimmed {
		if cap(a.slots) < n {
			a.slots = make([][]float64, n)
			a.slotW = make([]float64, n)
		}
		a.slots, a.slotW = a.slots[:n], a.slotW[:n]
		clear(a.slots)
		clear(a.slotW)
	}
	a.psum.Reset()
	a.open, a.round, a.received = true, round, 0
	a.pMode, a.pCount = false, 0
}

// Add admits client id's contribution to the open round. It returns a
// typed error — never panics — on an out-of-range id, a duplicate, a
// payload whose length disagrees with the round's, a non-finite scalar or
// weight (ErrNonFinite), or a product outside the exact range
// (ErrOutOfRange); a refused contribution changes nothing. In mean mode
// the contribution is folded at once and the slice is not retained; an
// accumulator overflow of the folded sums poisons the round
// (ErrAccumOverflow, see Poisoned). In trimmed mode the slice is stored,
// not copied; callers must not mutate it until the round is reduced or
// discarded.
func (a *Aggregator) Add(id int, contrib []float64, weight float64) error {
	if !a.open {
		return fmt.Errorf("fl: Add outside an open round")
	}
	if a.pMode {
		return fmt.Errorf("fl: Add into round %d already collecting relay partials", a.round)
	}
	if id < 0 || id >= len(a.seen) {
		return fmt.Errorf("fl: client id %d out of range [0,%d)", id, len(a.seen))
	}
	if a.seen[id] {
		return fmt.Errorf("fl: duplicate contribution from client %d in round %d", id, a.round)
	}
	var err error
	if a.reduction == ReduceTrimmed {
		err = a.store(id, contrib, weight)
	} else {
		err = a.fold(contrib, weight)
	}
	if err != nil {
		return fmt.Errorf("round %d client %d: %w", a.round, id, err)
	}
	a.seen[id] = true
	a.received++
	return nil
}

// store keeps one validated contribution for a trimmed round.
func (a *Aggregator) store(id int, contrib []float64, weight float64) error {
	if d := a.Dim(); d >= 0 && len(contrib) != d {
		return fmt.Errorf("%w: payload length %d, round holds %d", ErrLengthMismatch, len(contrib), d)
	}
	if err := checkContrib(contrib, weight); err != nil {
		return err
	}
	a.slots[id], a.slotW[id] = contrib, weight
	return nil
}

// AddPartial folds a relay's exported partial into the open round — the
// root face of the hierarchy. It needs the mean reduction, and a round
// that has seen AddPartial refuses plain Adds (and vice versa): a round
// is collected from clients or from relays, never both. Validation
// (dimension, count, weight sign, poison, overflow) is Merge's; id-range
// and duplicate checks mirror Add's.
func (a *Aggregator) AddPartial(id int, p *Partial) error {
	if !a.open {
		return fmt.Errorf("fl: AddPartial outside an open round")
	}
	if a.reduction != ReduceMean {
		return fmt.Errorf("fl: AddPartial needs the mean reduction, not %v", a.reduction)
	}
	if !a.pMode && a.received > 0 {
		return fmt.Errorf("fl: AddPartial into round %d already collecting client updates", a.round)
	}
	if id < 0 || id >= len(a.seen) {
		return fmt.Errorf("fl: relay id %d out of range [0,%d)", id, len(a.seen))
	}
	if a.seen[id] {
		return fmt.Errorf("fl: duplicate partial from relay %d in round %d", id, a.round)
	}
	if err := a.psum.Merge(p); err != nil {
		return fmt.Errorf("round %d relay %d: %w", a.round, id, err)
	}
	a.pMode = true
	a.seen[id] = true
	a.received++
	a.pCount += p.Count
	return nil
}

// ClientCount returns how many client contributions the open round
// represents: for a partial-merge round, the sum of the relays' counts;
// otherwise the number of Adds.
func (a *Aggregator) ClientCount() int {
	if a.pMode {
		return a.pCount
	}
	return a.received
}

// Poisoned reports whether an accumulator overflow invalidated the open
// (or last reduced) mean round: its sums are gone, and it never
// aggregates.
func (a *Aggregator) Poisoned() bool { return a.psum.Poisoned() }

// Dim returns the payload length of the open round's contributions (-1
// while none arrived).
func (a *Aggregator) Dim() int {
	if a.reduction == ReduceTrimmed {
		for id, ok := range a.seen {
			if ok {
				return len(a.slots[id])
			}
		}
		return -1
	}
	if a.received == 0 {
		return -1
	}
	return a.psum.Dim()
}

// Reduce closes the open round and writes its reduction into dst. In
// ReduceMean mode that is the exact mean of the folded sums — bit-identical
// to WeightedMean over the same (contribs, weights), and, in partial-merge
// rounds, to a flat aggregation of every underlying client (the sums are
// exact, so grouping cannot change the bits). ReduceTrimmed applies the
// coordinate-wise trimmed mean instead (which itself degrades bit-exactly
// to the mean when fewer than 3 contributions arrive). Returns the direct
// contribution count (Adds, or relay partials — see ClientCount for the
// underlying client total) and false when nothing aggregates (no
// contributions, zero total weight, or a poisoned round); the round is
// closed either way.
func (a *Aggregator) Reduce(dst []float64) (int, bool) {
	if !a.open {
		return 0, false
	}
	a.open = false
	count := a.received
	if count == 0 {
		return 0, false
	}
	if a.reduction == ReduceTrimmed {
		ok := a.TrimmedMean(dst, a.slots, a.slotW, a.trimFrac)
		clear(a.slots)
		return count, ok
	}
	a.lastTrimK, a.lastTrimM = 0, count
	return count, a.mean(dst)
}

// ExportPartial closes the open mean round and moves its exact mergeable
// state into p — the relay face of the hierarchy; p's old columns become
// the aggregator's buffer for the next round. Returns the contribution
// count and false when no mean round was open; a round with zero
// contributions exports a valid empty partial.
func (a *Aggregator) ExportPartial(p *Partial) (int, bool) {
	if !a.open || a.reduction != ReduceMean {
		return 0, false
	}
	a.open = false
	*p, a.psum = a.psum, *p
	a.psum.Reset()
	return a.received, true
}

// Discard drops the in-flight round without aggregating — the crash-
// recovery semantics: partials of an uncommitted round are thrown away
// and the round re-opened, which idempotent client re-sends tolerate.
func (a *Aggregator) Discard() {
	if !a.open {
		return
	}
	clear(a.seen)
	clear(a.slots)
	a.psum.Reset()
	a.open, a.received = false, 0
	a.pMode, a.pCount = false, 0
}
