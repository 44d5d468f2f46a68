package fl

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fixToBig interprets a two's-complement (lo, hi) pair as a big.Int.
func fixToBig(lo, hi uint64) *big.Int {
	neg := int64(hi) < 0
	if neg {
		lo, hi = negate128(lo, hi)
	}
	n := new(big.Int).SetUint64(hi)
	n.Lsh(n, 64)
	n.Or(n, new(big.Int).SetUint64(lo))
	if neg {
		n.Neg(n)
	}
	return n
}

// TestFixFromFloatCorrectlyRounded checks fixFromFloat against exact
// rational arithmetic: the returned integer must be within half a unit
// of x·2^64, with exact ties resolved to the even integer.
func TestFixFromFloatCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	two64 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 64))
	half := big.NewRat(1, 2)

	check := func(x float64) {
		lo, hi, ok := fixFromFloat(x)
		if !ok {
			t.Fatalf("fixFromFloat(%v) refused a representable value", x)
		}
		got := fixToBig(lo, hi)
		exact := new(big.Rat).SetFloat64(x)
		exact.Mul(exact, two64)
		diff := new(big.Rat).Sub(exact, new(big.Rat).SetInt(got))
		ad := new(big.Rat).Abs(diff)
		switch ad.Cmp(half) {
		case 1:
			t.Fatalf("fixFromFloat(%v) = %v, off by %v units (> 1/2)", x, got, ad.FloatString(4))
		case 0:
			if got.Bit(0) != 0 {
				t.Fatalf("fixFromFloat(%v) = %v broke the tie toward odd", x, got)
			}
		}
	}

	check(0)
	check(math.Copysign(0, -1))
	check(1)
	check(-1)
	check(0x1p-64)  // one unit exactly
	check(0x3p-65)  // tie at 1.5 units: must round to 2 (even)
	check(-0x3p-65) // negative tie
	check(0x1p-65)  // tie at half a unit: must round to 0
	check(0x1p-1040)
	check(5e-324) // smallest subnormal: rounds to zero
	check(math.Nextafter(0x1p62, 0))
	for i := 0; i < 20000; i++ {
		check(math.Ldexp(rng.NormFloat64(), rng.Intn(131)-70))
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p63, -0x1p64, math.MaxFloat64} {
		if _, _, ok := fixFromFloat(bad); ok {
			t.Fatalf("fixFromFloat(%v) accepted an unrepresentable value", bad)
		}
	}
}

// TestFixAddMatchesBig drives fixAdd with random signed 128-bit values
// and checks both the sum and the overflow verdict against big.Int.
func TestFixAddMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lim := new(big.Int).Lsh(big.NewInt(1), 127)
	negLim := new(big.Int).Neg(lim)
	randFix := func() (uint64, uint64) {
		lo, hi := rng.Uint64(), rng.Uint64()
		// Mix magnitudes so overflow actually occurs sometimes.
		switch rng.Intn(3) {
		case 0:
			hi &= 0xffff
		case 1:
			hi |= 0xffff_0000_0000_0000
		}
		return lo, hi
	}
	for i := 0; i < 50000; i++ {
		alo, ahi := randFix()
		blo, bhi := randFix()
		lo, hi, ok := fixAdd(alo, ahi, blo, bhi)
		want := new(big.Int).Add(fixToBig(alo, ahi), fixToBig(blo, bhi))
		fits := want.Cmp(lim) < 0 && want.Cmp(negLim) >= 0
		if ok != fits {
			t.Fatalf("fixAdd overflow verdict %v, big says fits=%v (a=%v b=%v)",
				ok, fits, fixToBig(alo, ahi), fixToBig(blo, bhi))
		}
		if ok && fixToBig(lo, hi).Cmp(want) != 0 {
			t.Fatalf("fixAdd = %v, want %v", fixToBig(lo, hi), want)
		}
	}
}

// TestFixToFloatCorrectlyRounded checks fixToFloat against big.Float's
// correctly-rounded conversion, and that values on the float grid
// round-trip exactly.
func TestFixToFloatCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(lo, hi uint64) {
		got := fixToFloat(lo, hi)
		bf := new(big.Float).SetPrec(200).SetInt(fixToBig(lo, hi))
		bf.Quo(bf, new(big.Float).SetPrec(200).SetInt(new(big.Int).Lsh(big.NewInt(1), 64)))
		want, _ := bf.Float64()
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("fixToFloat(%v) = %v, want %v", fixToBig(lo, hi), got, want)
		}
	}
	check(0, 0)
	check(1, 0)
	check(^uint64(0), ^uint64(0)) // -1 unit
	check(0, 1)
	check(0, 0x8000_0000_0000_0000) // most negative
	for i := 0; i < 50000; i++ {
		lo, hi := rng.Uint64(), rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			hi = 0
		case 1:
			hi &= 0xff
		case 2:
			hi |= ^uint64(0xff)
		}
		check(lo, hi)
	}

	// Grid round-trip: |x| ≥ 2^-12 converts exactly, so to-fix-and-back
	// is the identity.
	for i := 0; i < 20000; i++ {
		x := math.Ldexp(rng.NormFloat64(), rng.Intn(70)-10)
		if math.Abs(x) < 0x1p-12 || math.Abs(x) >= 0x1p62 {
			continue
		}
		lo, hi, ok := fixFromFloat(x)
		if !ok {
			t.Fatalf("fixFromFloat(%v) refused", x)
		}
		if y := fixToFloat(lo, hi); y != x {
			t.Fatalf("round trip %v -> %v", x, y)
		}
	}
}

// TestPartialPartitionInvariance is the property the relay tier rests
// on: folding clients into per-group partials and merging the groups in
// any order is bit-identical to folding everything into one flat
// partial, for any random partitioning.
func TestPartialPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const dim = 257
	for trial := 0; trial < 40; trial++ {
		clients := 2 + rng.Intn(30)
		groups := 1 + rng.Intn(6)
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		for k := range contribs {
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				contribs[k][j] = math.Ldexp(rng.NormFloat64(), rng.Intn(30)-15)
			}
			weights[k] = rng.Float64()*10 + 0.01
		}

		var flat Partial
		for _, k := range rng.Perm(clients) { // arrival order must not matter
			if err := flat.Fold(contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}

		parts := make([]Partial, groups)
		for k := range contribs {
			g := rng.Intn(groups)
			if err := parts[g].Fold(contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		var merged Partial
		for _, g := range rng.Perm(groups) { // merge order must not matter
			if err := merged.Merge(&parts[g]); err != nil {
				t.Fatal(err)
			}
		}

		if merged.Count != flat.Count || merged.WeightLo != flat.WeightLo || merged.WeightHi != flat.WeightHi {
			t.Fatalf("trial %d: merged (count=%d w=%d,%d) != flat (count=%d w=%d,%d)",
				trial, merged.Count, merged.WeightLo, merged.WeightHi, flat.Count, flat.WeightLo, flat.WeightHi)
		}
		for i := range flat.Cols {
			if merged.Cols[i] != flat.Cols[i] {
				t.Fatalf("trial %d: column word %d differs", trial, i)
			}
		}
		got := make([]float64, dim)
		want := make([]float64, dim)
		if !merged.Mean(got) || !flat.Mean(want) {
			t.Fatalf("trial %d: Mean failed", trial)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: mean[%d] = %v, want %v", trial, j, got[j], want[j])
			}
		}
	}
}

// TestPartialMeanMatchesBig cross-checks the whole pipeline (fold,
// merge, mean) against exact rational arithmetic: the computed mean must
// equal round(round(S)/round(W)) where S and W are the true fixed-point
// sums.
func TestPartialMeanMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const dim, clients = 31, 9
	var p Partial
	sums := make([]*big.Int, dim)
	for j := range sums {
		sums[j] = new(big.Int)
	}
	wsum := new(big.Int)
	for k := 0; k < clients; k++ {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * 3
		}
		w := rng.Float64() + 0.05
		if err := p.Fold(c, w); err != nil {
			t.Fatal(err)
		}
		for j, v := range c {
			lo, hi, _ := fixFromFloat(w * v)
			sums[j].Add(sums[j], fixToBig(lo, hi))
		}
		lo, hi, _ := fixFromFloat(w)
		wsum.Add(wsum, fixToBig(lo, hi))
	}
	for j := 0; j < dim; j++ {
		if fixToBig(p.Cols[2*j], p.Cols[2*j+1]).Cmp(sums[j]) != 0 {
			t.Fatalf("column %d: partial %v, big %v", j, fixToBig(p.Cols[2*j], p.Cols[2*j+1]), sums[j])
		}
	}
	if fixToBig(p.WeightLo, p.WeightHi).Cmp(wsum) != 0 {
		t.Fatalf("weight: partial %v, big %v", fixToBig(p.WeightLo, p.WeightHi), wsum)
	}
	got := make([]float64, dim)
	if !p.Mean(got) {
		t.Fatal("Mean failed")
	}
	wf := fixToFloat(p.WeightLo, p.WeightHi)
	for j := range got {
		want := fixToFloat(p.Cols[2*j], p.Cols[2*j+1]) / wf
		if got[j] != want {
			t.Fatalf("mean[%d] = %v, want %v", j, got[j], want)
		}
	}
}

// TestPartialRejections pins the validation and poison semantics: clean
// rejects leave no trace, overflow poisons stickily, and empty or
// zero-weight partials refuse to aggregate.
func TestPartialRejections(t *testing.T) {
	var p Partial
	good := []float64{1, 2}
	if err := p.Fold(good, 1); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		contrib []float64
		weight  float64
		want    error
	}{
		{"nan scalar", []float64{math.NaN(), 0}, 1, ErrNonFinite},
		{"inf scalar", []float64{0, math.Inf(1)}, 1, ErrNonFinite},
		{"nan weight", good, math.NaN(), ErrNonFinite},
		{"negative weight", good, -1, ErrNonFinite},
		{"length mismatch", []float64{1}, 1, ErrLengthMismatch},
		{"huge weight", good, 0x1p70, ErrOutOfRange},
		{"huge scalar", []float64{1e19, 0}, 1, ErrOutOfRange},
		{"huge product", []float64{0, 0x1p33}, 0x1p30, ErrOutOfRange},
	} {
		if err := p.Fold(tc.contrib, tc.weight); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if p.Count != 1 || p.Poisoned() {
			t.Fatalf("%s: clean reject mutated state (count=%d poisoned=%v)", tc.name, p.Count, p.Poisoned())
		}
	}

	// Column overflow: 2^61-magnitude addends overflow on the fourth fold
	// (4·2^61 = 2^63) and poison the partial stickily.
	var q Partial
	huge := []float64{0x1p61}
	for i := 0; i < 3; i++ {
		if err := q.Fold(huge, 1); err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
	}
	if err := q.Fold(huge, 1); !errors.Is(err, ErrAccumOverflow) {
		t.Fatalf("overflow fold err = %v", err)
	}
	if !q.Poisoned() {
		t.Fatal("overflow did not poison")
	}
	if err := q.Fold(good, 1); !errors.Is(err, ErrAccumOverflow) {
		t.Fatalf("post-poison fold err = %v", err)
	}
	if q.Mean(make([]float64, 1)) {
		t.Fatal("poisoned partial aggregated")
	}
	var r Partial
	if err := r.Merge(&q); !errors.Is(err, ErrAccumOverflow) {
		t.Fatalf("merge of poisoned partial err = %v", err)
	}

	// Nothing to aggregate: empty, and zero total weight.
	var empty Partial
	if empty.Mean(nil) {
		t.Fatal("empty partial aggregated")
	}
	var zw Partial
	if err := zw.Fold(good, 0); err != nil {
		t.Fatal(err)
	}
	dst := []float64{7, 7}
	if zw.Mean(dst) {
		t.Fatal("zero-weight partial aggregated")
	}
	if dst[0] != 7 || dst[1] != 7 {
		t.Fatal("failed Mean touched dst")
	}

	// Hostile merge inputs: negative count, negative weight, odd columns,
	// dimension disagreement.
	var h Partial
	if err := h.Merge(&Partial{Count: -1}); err == nil {
		t.Fatal("negative count merged")
	}
	if err := h.Merge(&Partial{Count: 1, WeightHi: 1 << 63}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("negative weight merge err = %v", err)
	}
	if err := h.Merge(&Partial{Count: 1, Cols: make([]uint64, 3)}); err == nil {
		t.Fatal("odd column count merged")
	}
	if err := h.Fold(good, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(&Partial{Count: 1, Cols: make([]uint64, 6)}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("dim mismatch merge err = %v", err)
	}

	// Reset clears everything for reuse.
	q.Reset()
	if q.Poisoned() || q.Count != 0 || len(q.Cols) != 0 {
		t.Fatalf("Reset left state: %+v", q)
	}
	if err := q.Fold(good, 2); err != nil {
		t.Fatal(err)
	}
}
