package fl

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"apf/internal/quantize"
)

// serialWeightedMean is the unsharded, unpooled reference for the exact
// reduction: one column at a time, folding fixed-point products with the
// same primitives the Aggregator shards. Any deviation in the sharded
// path's chunking or pool scheduling shows up as a bit difference here.
func serialWeightedMean(dst []float64, contribs [][]float64, weights []float64) bool {
	var wlo, whi uint64
	for _, w := range weights {
		if w == 0 {
			continue
		}
		plo, phi, ok := fixFromFloat(w)
		if !ok {
			return false
		}
		if wlo, whi, ok = fixAdd(wlo, whi, plo, phi); !ok {
			return false
		}
	}
	if int64(whi) < 0 || (whi == 0 && wlo == 0) {
		return false
	}
	wf := fixToFloat(wlo, whi)
	for j := range dst {
		var slo, shi uint64
		for k, c := range contribs {
			if weights[k] == 0 {
				continue
			}
			plo, phi, _ := fixFromFloat(weights[k] * c[j])
			slo, shi, _ = fixAdd(slo, shi, plo, phi)
		}
		dst[j] = fixToFloat(slo, shi) / wf
	}
	return true
}

// TestWeightedMeanMatchesSerial checks the sharded reduction is bit-exact
// against the serial loop across dimensions spanning the single-chunk fast
// path, ragged tails, and many-chunk fan-out, including zero-weight clients
// with nil contributions (inactive under partial participation). Run under
// -race this also exercises the pool's publish/retire synchronization over
// many back-to-back jobs.
func TestWeightedMeanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 3, 8} {
		a := NewAggregator(workers)
		for _, dim := range []int{1, 100, minChunk, minChunk + 1, 8*minChunk + 37} {
			for _, clients := range []int{1, 7} {
				contribs := make([][]float64, clients)
				weights := make([]float64, clients)
				for k := range contribs {
					if k%3 == 2 {
						// Inactive client: no contribution this round.
						contribs[k], weights[k] = nil, 0
						continue
					}
					contribs[k] = make([]float64, dim)
					for j := range contribs[k] {
						contribs[k][j] = rng.NormFloat64()
					}
					weights[k] = rng.Float64() + 0.1
				}
				got := make([]float64, dim)
				want := make([]float64, dim)
				if g, w := a.WeightedMean(got, contribs, weights), serialWeightedMean(want, contribs, weights); g != w {
					t.Fatalf("workers=%d dim=%d clients=%d aggregated=%v, serial says %v", workers, dim, clients, g, w)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("workers=%d dim=%d clients=%d element %d = %v, want %v (not bit-exact)", workers, dim, clients, j, got[j], want[j])
					}
				}
			}
		}
		a.Close()
	}
}

// TestWeightedMeanZeroTotalWeightLeavesDst verifies the "nothing to
// aggregate" contract: dst keeps the previous global untouched.
func TestWeightedMeanZeroTotalWeightLeavesDst(t *testing.T) {
	a := NewAggregator(2)
	defer a.Close()
	dst := []float64{1, 2, 3}
	if a.WeightedMean(dst, [][]float64{nil, nil}, []float64{0, 0}) {
		t.Fatal("WeightedMean reported aggregation with zero total weight")
	}
	for j, v := range dst {
		if v != float64(j+1) {
			t.Fatalf("dst[%d] mutated to %v", j, v)
		}
	}
}

// TestStreamingReduceMatchesOneShot collects rounds incrementally in
// arbitrary arrival order and checks Reduce is bit-exact with the
// one-shot WeightedMean over the same clients in id order.
func TestStreamingReduceMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewAggregator(3)
	defer a.Close()
	ref := NewAggregator(1)
	defer ref.Close()

	const clients, dim = 5, 2*minChunk + 11
	for round := 0; round < 4; round++ {
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		for k := range contribs {
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				contribs[k][j] = rng.NormFloat64()
			}
			weights[k] = rng.Float64() + 0.1
		}

		a.Open(round, clients)
		for _, id := range rng.Perm(clients) { // arrival order must not matter
			if err := a.Add(id, contribs[id], weights[id]); err != nil {
				t.Fatalf("round %d Add(%d): %v", round, id, err)
			}
		}
		if a.ClientCount() != clients || a.Dim() != dim {
			t.Fatalf("round %d: count=%d dim=%d", round, a.ClientCount(), a.Dim())
		}
		got := make([]float64, dim)
		count, ok := a.Reduce(got)
		if !ok || count != clients {
			t.Fatalf("round %d Reduce: count=%d ok=%v", round, count, ok)
		}
		want := make([]float64, dim)
		ref.WeightedMean(want, contribs, weights)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d element %d = %v, want %v (not bit-exact)", round, j, got[j], want[j])
			}
		}
	}
}

// TestStreamingAndPartialModesBitExact drives the two ways a mean round
// is collected — client folds in random arrival order, and a two-tier
// relay split exporting and re-merging partials — over the same clients,
// and requires both to reduce to the serial reference's bits, dropped
// clients included; the flat round's exported partial must equal the
// merge of the relay partials word for word.
func TestStreamingAndPartialModesBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const clients, relays, dim = 11, 3, minChunk + 7
	for round := 0; round < 3; round++ {
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		wantCount := 0
		for k := range contribs {
			if k%5 == 4 {
				continue // dropped client: no contribution this round
			}
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				contribs[k][j] = rng.NormFloat64()
			}
			weights[k] = rng.Float64() + 0.1
			wantCount++
		}
		want := make([]float64, dim)
		if !serialWeightedMean(want, contribs, weights) {
			t.Fatal("serial reference aggregated nothing")
		}

		// Flat: every client folded in random arrival order.
		flat := NewAggregator(2)
		flat.Open(round, clients)
		for _, k := range rng.Perm(clients) {
			if contribs[k] == nil {
				continue
			}
			if err := flat.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float64, dim)
		count, ok := flat.Reduce(got)
		if !ok || count != wantCount {
			t.Fatalf("flat Reduce: count=%d ok=%v, want %d", count, ok, wantCount)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d flat element %d = %v, want %v", round, j, got[j], want[j])
			}
		}

		// Two-tier: clients partitioned across relays, partials exported
		// and merged at a root in random order.
		parts := make([]Partial, relays)
		for r := range parts {
			relay := NewAggregator(1)
			relay.Open(round, clients)
			for k := range contribs {
				if contribs[k] == nil || k%relays != r {
					continue
				}
				if err := relay.Add(k, contribs[k], weights[k]); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := relay.ExportPartial(&parts[r]); !ok {
				t.Fatalf("relay %d ExportPartial failed", r)
			}
			relay.Close()
		}
		root := NewAggregator(2)
		root.Open(round, relays)
		for _, r := range rng.Perm(relays) {
			if err := root.AddPartial(r, &parts[r]); err != nil {
				t.Fatal(err)
			}
		}
		if root.ClientCount() != wantCount {
			t.Fatalf("root ClientCount = %d, want %d", root.ClientCount(), wantCount)
		}
		got2 := make([]float64, dim)
		if n, ok := root.Reduce(got2); !ok || n != relays {
			t.Fatalf("root Reduce: %d partials, ok=%v, want %d", n, ok, relays)
		}
		root.Close()
		for j := range want {
			if got2[j] != want[j] {
				t.Fatalf("round %d two-tier element %d = %v, want %v", round, j, got2[j], want[j])
			}
		}

		// The flat round's own export is the merged relay partials.
		flat.Open(round, clients)
		for k := range contribs {
			if contribs[k] == nil {
				continue
			}
			if err := flat.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		var fromFlat, fromRelays Partial
		if _, ok := flat.ExportPartial(&fromFlat); !ok {
			t.Fatal("flat ExportPartial failed")
		}
		flat.Close()
		for _, p := range parts {
			if err := fromRelays.Merge(&p); err != nil {
				t.Fatal(err)
			}
		}
		if fromFlat.Count != fromRelays.Count ||
			fromFlat.WeightLo != fromRelays.WeightLo || fromFlat.WeightHi != fromRelays.WeightHi {
			t.Fatal("flat and merged relay partials disagree on weight/count")
		}
		for i := range fromFlat.Cols {
			if fromFlat.Cols[i] != fromRelays.Cols[i] {
				t.Fatalf("flat and merged relay partials disagree at column word %d", i)
			}
		}
	}
}

// TestStreamingAddValidation pins the mean round's guards: duplicates,
// out-of-range ids, poisoned payloads, mode mixing, and the partial faces
// refusing a trimmed aggregator.
func TestStreamingAddValidation(t *testing.T) {
	a := NewAggregator(1)
	defer a.Close()
	a.Open(0, 3)
	if err := a.Add(0, []float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(0, []float64{1, 2}, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := a.Add(5, []float64{1, 2}, 1); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if err := a.Add(1, []float64{math.NaN(), 2}, 1); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN err = %v", err)
	}
	if err := a.Add(1, []float64{1}, 1); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch err = %v", err)
	}
	if a.ClientCount() != 1 || a.Poisoned() {
		t.Fatalf("guards mutated state: count=%d poisoned=%v", a.ClientCount(), a.Poisoned())
	}
	if a.Dim() != 2 {
		t.Fatalf("Dim = %d", a.Dim())
	}
	var p Partial
	if err := p.Fold([]float64{3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPartial(1, &p); err == nil {
		t.Fatal("AddPartial mixed into a client round")
	}

	// And the converse: a partial round refuses plain Adds.
	a.Discard()
	a.Open(1, 3)
	if err := a.AddPartial(0, &p); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(1, []float64{1, 2}, 1); err == nil {
		t.Fatal("Add mixed into a partial round")
	}

	// A trimmed aggregator keeps per-client values; it has no partial
	// face, and its reduction cannot change mid-round.
	b := NewAggregator(1)
	defer b.Close()
	b.SetReduction(ReduceTrimmed, 0.25)
	b.Open(0, 2)
	if err := b.AddPartial(0, &p); err == nil {
		t.Fatal("AddPartial accepted on a trimmed aggregator")
	}
	if err := b.Add(0, []float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetReduction inside an open round did not panic")
			}
		}()
		b.SetReduction(ReduceMean, 0)
	}()
	var q Partial
	if _, ok := b.ExportPartial(&q); ok {
		t.Fatal("ExportPartial succeeded on a trimmed round")
	}
}

// TestAddRejectsPoisonedContribution is the poisoned-client regression:
// NaN and Inf scalars, non-finite weights, duplicates, and length
// disagreements all get typed errors, and a rejected contribution leaves
// the round's aggregate unchanged.
func TestAddRejectsPoisonedContribution(t *testing.T) {
	a := NewAggregator(1)
	defer a.Close()
	a.Open(0, 3)

	good0 := []float64{1, 2, 3}
	good2 := []float64{4, 5, 6}
	if err := a.Add(0, good0, 1); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		id      int
		contrib []float64
		weight  float64
		want    error // typed error expected, nil for an untyped refusal
	}{
		{"nan scalar", 1, []float64{1, math.NaN(), 3}, 1, ErrNonFinite},
		{"inf scalar", 1, []float64{math.Inf(1), 2, 3}, 1, ErrNonFinite},
		{"nan weight", 1, good2, math.NaN(), ErrNonFinite},
		{"inf weight", 1, good2, math.Inf(-1), ErrNonFinite},
		{"negative weight", 1, good2, -2, ErrNonFinite},
		{"scalar out of range", 1, []float64{1, 1e19, 3}, 1, ErrOutOfRange},
		{"product out of range", 1, []float64{1, 2, 3}, 0x1p62, ErrOutOfRange},
		{"overflowing product", 1, []float64{1, 1e300, 3}, 1e300, ErrOutOfRange},
		{"weight out of range", 1, good2, 1e19, ErrOutOfRange},
		{"id out of range", 7, good2, 1, nil},
		{"duplicate", 0, good0, 1, nil},
		{"length disagreement", 1, []float64{1, 2}, 1, ErrLengthMismatch},
	}
	for _, tc := range cases {
		err := a.Add(tc.id, tc.contrib, tc.weight)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want != ErrNonFinite && errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: err = %v, unexpectedly ErrNonFinite", tc.name, err)
		}
	}
	if a.ClientCount() != 1 || a.Poisoned() {
		t.Fatalf("rejected contributions changed the round: count=%d poisoned=%v", a.ClientCount(), a.Poisoned())
	}

	// The surviving clients aggregate as if the poisoned one never sent.
	if err := a.Add(2, good2, 3); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	if _, ok := a.Reduce(got); !ok {
		t.Fatal("Reduce failed")
	}
	want := make([]float64, 3)
	ref := NewAggregator(1)
	defer ref.Close()
	ref.WeightedMean(want, [][]float64{good0, good2}, []float64{1, 3})
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("element %d = %v, want %v", j, got[j], want[j])
		}
	}
}

// TestRefusedFoldLeavesRoundIntact: a contribution refused mid-fold — a
// hostile scalar in a late shard, after the other shards have already
// folded — is taken back out of every shard, so the round reduces to
// exactly the bits of the clients that were admitted.
func TestRefusedFoldLeavesRoundIntact(t *testing.T) {
	const dim = 5*minChunk + 3
	rng := rand.New(rand.NewSource(31))
	contribs := make([][]float64, 3)
	for k := range contribs {
		contribs[k] = make([]float64, dim)
		for j := range contribs[k] {
			contribs[k][j] = rng.NormFloat64() * 1e3
		}
	}
	weights := []float64{1.5, 2, 0.75}
	want := make([]float64, dim)
	if !serialWeightedMean(want, [][]float64{contribs[0], nil, contribs[2]}, []float64{weights[0], 0, weights[2]}) {
		t.Fatal("serial reference aggregated nothing")
	}
	for _, bad := range []struct {
		at   int
		v    float64
		want error
	}{{dim - 2, 1e19, ErrOutOfRange}, {minChunk + 1, math.Inf(-1), ErrNonFinite}, {0, math.NaN(), ErrNonFinite}} {
		a := NewAggregator(3)
		a.Open(0, 3)
		if err := a.Add(0, contribs[0], weights[0]); err != nil {
			t.Fatal(err)
		}
		hostile := append([]float64(nil), contribs[1]...)
		hostile[bad.at] = bad.v
		if err := a.Add(1, hostile, weights[1]); !errors.Is(err, bad.want) {
			t.Fatalf("scalar %v at %d: err = %v, want %v", bad.v, bad.at, err, bad.want)
		}
		if err := a.Add(2, contribs[2], weights[2]); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, dim)
		if count, ok := a.Reduce(got); !ok || count != 2 {
			t.Fatalf("Reduce: count=%d ok=%v, want 2", count, ok)
		}
		a.Close()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("scalar %v at %d: element %d = %v, want %v", bad.v, bad.at, j, got[j], want[j])
			}
		}
	}
}

// TestMeanColumnsIndependentOfClients pins the other half of a mean
// round's O(dim) memory (see TestMeanAddRetainsNothing): the column
// buffer is sized by the dimension alone, and no per-client slots exist.
func TestMeanColumnsIndependentOfClients(t *testing.T) {
	const dim = 3*minChunk + 5
	a := NewAggregator(2)
	defer a.Close()
	colCap := func(clients int) int {
		a.Open(clients, clients)
		c := make([]float64, dim)
		for id := 0; id < clients; id++ {
			if err := a.Add(id, c, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := a.Reduce(make([]float64, dim)); !ok {
			t.Fatal("Reduce failed")
		}
		return cap(a.psum.Cols)
	}
	if four, many := colCap(4), colCap(32); four != 2*dim || many != four {
		t.Fatalf("column buffer cap: %d words at 4 clients, %d at 32, want %d for both", four, many, 2*dim)
	}
	if a.slots != nil {
		t.Fatal("mean rounds allocated per-client slots")
	}
}

// TestDiscardDropsRound checks crash-recovery semantics: a discarded
// round leaves no trace and the aggregator reopens cleanly.
func TestDiscardDropsRound(t *testing.T) {
	a := NewAggregator(1)
	defer a.Close()
	a.Open(0, 2)
	if err := a.Add(0, []float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	a.Discard()
	if a.ClientCount() != 0 || a.Dim() != -1 {
		t.Fatalf("discard left state: count=%d dim=%d", a.ClientCount(), a.Dim())
	}
	if _, ok := a.Reduce(make([]float64, 2)); ok {
		t.Fatal("Reduce succeeded on a discarded round")
	}
	a.Open(1, 2)
	if err := a.Add(0, []float64{3, 4}, 1); err != nil {
		t.Fatalf("reopen after discard: %v", err)
	}
}

// TestPoolDoBarrier stresses the pool barrier: every index of every job
// must run exactly once, with full completion before Do returns, across
// jobs both wider and narrower than the worker count.
func TestPoolDoBarrier(t *testing.T) {
	p := newWorkerPool(4)
	defer p.Close()
	for job := 0; job < 200; job++ {
		n := 1 + job%13
		hits := make([]int32, n)
		p.Do(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("job %d index %d ran %d times", job, i, h)
			}
		}
	}
}

// TestRelayMergePropertyRandomPartitions is the hierarchy's property test:
// for random client populations, random client→relay assignments (empty
// relays included), random dropped clients, and contributions drawn both
// as raw doubles and as binary16-representable values (the sparse/q16
// codec's image under quantize.RoundTripSlice), the root's merge of relay
// partials must reduce to exactly the bits a flat aggregator over the
// same surviving clients produces.
func TestRelayMergePropertyRandomPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		clients := 1 + rng.Intn(20)
		relays := 1 + rng.Intn(5)
		dim := 1 + rng.Intn(200)
		q16 := trial%2 == 1
		assign := make([]int, clients)
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		alive := 0
		for k := range contribs {
			assign[k] = rng.Intn(relays)
			if rng.Float64() < 0.25 && alive > 0 {
				continue // dropped client (keep at least one contributor)
			}
			alive++
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				if rng.Float64() < 0.3 {
					continue // sparse coordinate: frozen, rides as zero
				}
				contribs[k][j] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
			}
			if q16 {
				contribs[k] = quantize.RoundTripSlice(contribs[k])
			}
			weights[k] = rng.Float64()*5 + 0.01
		}

		flat := NewAggregator(2)
		flat.Open(0, clients)
		for _, k := range rng.Perm(clients) {
			if contribs[k] == nil {
				continue
			}
			if err := flat.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatalf("trial %d flat Add: %v", trial, err)
			}
		}
		want := make([]float64, dim)
		wantCount, ok := flat.Reduce(want)
		flat.Close()
		if !ok || wantCount != alive {
			t.Fatalf("trial %d: flat Reduce count=%d ok=%v, want %d", trial, wantCount, ok, alive)
		}

		parts := make([]Partial, relays)
		for r := range parts {
			edge := NewAggregator(1)
			edge.Open(0, clients)
			for k := range contribs {
				if contribs[k] == nil || assign[k] != r {
					continue
				}
				if err := edge.Add(k, contribs[k], weights[k]); err != nil {
					t.Fatalf("trial %d relay %d Add: %v", trial, r, err)
				}
			}
			if _, ok := edge.ExportPartial(&parts[r]); !ok {
				t.Fatalf("trial %d relay %d ExportPartial failed", trial, r)
			}
			edge.Close()
		}

		root := NewAggregator(2)
		root.Open(0, relays)
		for _, r := range rng.Perm(relays) {
			if err := root.AddPartial(r, &parts[r]); err != nil {
				t.Fatalf("trial %d root AddPartial(%d): %v", trial, r, err)
			}
		}
		if got := root.ClientCount(); got != alive {
			t.Fatalf("trial %d: root ClientCount = %d, want %d", trial, got, alive)
		}
		got := make([]float64, dim)
		_, ok = root.Reduce(got)
		root.Close()
		if !ok {
			t.Fatalf("trial %d: root Reduce failed", trial)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (clients=%d relays=%d dim=%d q16=%v): element %d = %v, want %v",
					trial, clients, relays, dim, q16, j, got[j], want[j])
			}
		}
	}
}
