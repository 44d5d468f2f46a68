package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/stats"
)

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	m := NewTopK(5, 0.4, 4) // k = 2 of 5
	x := []float64{0, 0, 0, 0, 0}
	m.PostIterate(0, x)

	x = []float64{0.1, -5, 0.2, 3, -0.05}
	contrib, w, up := m.PrepareUpload(0, x)
	if w != 1 {
		t.Fatal("TopK always contributes")
	}
	if up != 2*(4+4) {
		t.Errorf("up bytes = %d, want 16", up)
	}
	// The two largest updates (-5 at idx 1, +3 at idx 3) go through.
	if contrib[1] != -5 || contrib[3] != 3 {
		t.Errorf("large updates not pushed: %v", contrib)
	}
	// The rest stay at the reference and accumulate as residual.
	if contrib[0] != 0 || contrib[2] != 0 || contrib[4] != 0 {
		t.Errorf("small updates leaked: %v", contrib)
	}
	if m.residual[0] != 0.1 || m.residual[2] != 0.2 {
		t.Errorf("residuals wrong: %v", m.residual)
	}
}

func TestTopKResidualEventuallySent(t *testing.T) {
	m := NewTopK(3, 0.34, 4) // k = 1 of 3
	x := []float64{0, 0, 0}
	m.PostIterate(0, x)

	// Scalar 0 moves a lot once; scalars 1 and 2 drip slowly. Their
	// accumulated residuals must eventually dominate and be pushed.
	sentSmall := false
	for round := 0; round < 30 && !sentSmall; round++ {
		if round == 0 {
			x[0] += 10
		}
		x[1] += 0.5
		x[2] += 0.4
		contrib, _, _ := m.PrepareUpload(round, x)
		if contrib[1] != m.lastGlobal[1] || contrib[2] != m.lastGlobal[2] {
			sentSmall = contrib[1] != 0 || contrib[2] != 0
		}
		m.ApplyDownload(round, x, contrib)
	}
	if !sentSmall {
		t.Error("small updates never escaped the residual")
	}
}

func TestTopKValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewTopK(0, 0.5, 4) },
		func() { NewTopK(3, 0, 4) },
		func() { NewTopK(3, 1.5, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: TopK never loses update mass — pushed + residual equals the
// accumulated raw update exactly.
func TestQuickTopKConservesMass(t *testing.T) {
	f := func(seed int64, dimRaw uint8) bool {
		dim := int(dimRaw%20) + 2
		m := NewTopK(dim, 0.3, 4)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, dim)
		raw := make([]float64, dim) // total true movement
		m.PostIterate(0, x)
		for round := 0; round < 10; round++ {
			for j := range x {
				d := rng.NormFloat64()
				x[j] += d
				raw[j] += d
			}
			contrib, _, _ := m.PrepareUpload(round, x)
			m.ApplyDownload(round, x, contrib)
			// After a single-client round, the model equals the pushed
			// contribution and the residual carries exactly the raw
			// movement not yet reflected in it: no mass is ever lost.
			for j := range x {
				if math.Abs((x[j]+m.residual[j])-raw[j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStochasticQuantizedUnbiasedAndCheap(t *testing.T) {
	inner := fl.NewPassthroughManager(4)
	m := NewStochasticQuantized(inner, 4, 1, 99)
	x := []float64{0.5, -0.25, 1.0, 0}
	m.PostIterate(0, x)
	contrib, w, up := m.PrepareUpload(0, x)
	if w != 1 {
		t.Fatal("weight changed")
	}
	// 4 levels → 9 grid points → 4 bits per value: 16 B payload → 2 B + 8 B scale.
	if up != 16*4/32+8 {
		t.Errorf("up bytes = %d, want %d", up, 16*4/32+8)
	}
	// Values land on the grid scaled by max |x| = 1.
	for _, v := range contrib {
		g := v * 4
		if math.Abs(g-math.Round(g)) > 1e-9 {
			t.Errorf("value %v not on the 1/4 grid", v)
		}
	}
}

func TestStochasticQuantizedSharedDownload(t *testing.T) {
	// Two clients with different private seeds but the same shared seed
	// must apply the identical download quantization.
	a := NewStochasticQuantized(fl.NewPassthroughManager(4), 2, 1, 7)
	b := NewStochasticQuantized(fl.NewPassthroughManager(4), 2, 2, 7)
	global := []float64{0.3, -0.7, 0.9}
	xa := make([]float64, 3)
	xb := make([]float64, 3)
	a.ApplyDownload(0, xa, global)
	b.ApplyDownload(0, xb, global)
	for j := range xa {
		if xa[j] != xb[j] {
			t.Fatalf("download quantization diverged at %d: %v vs %v", j, xa[j], xb[j])
		}
	}
}

func TestStochasticQuantizerUnbiased(t *testing.T) {
	q := quantize.NewStochasticQuantizer(3, stats.SplitRNG(5, 0))
	const v = 0.37
	sum := 0.0
	const reps = 20000
	for i := 0; i < reps; i++ {
		xs := []float64{v, 1} // second element pins the scale at 1
		q.Quantize(xs)
		sum += xs[0]
	}
	mean := sum / reps
	if math.Abs(mean-v) > 0.01 {
		t.Errorf("stochastic quantization biased: mean %v, want %v", mean, v)
	}
}

func TestStochasticQuantizerBits(t *testing.T) {
	tests := []struct {
		levels int
		bits   int
	}{
		{1, 2},  // {-1,0,1} → 3 points → 2 bits
		{4, 4},  // 9 points → 4 bits
		{7, 4},  // 15 points → 4 bits
		{15, 5}, // 31 points → 5 bits
	}
	for _, tt := range tests {
		q := quantize.NewStochasticQuantizer(tt.levels, stats.SplitRNG(1, 0))
		if got := q.BitsPerValue(); got != tt.bits {
			t.Errorf("levels=%d: bits=%d, want %d", tt.levels, got, tt.bits)
		}
	}
}

func TestStochasticQuantizerZeroVector(t *testing.T) {
	q := quantize.NewStochasticQuantizer(2, stats.SplitRNG(2, 0))
	xs := []float64{0, 0}
	if scale := q.Quantize(xs); scale != 0 || xs[0] != 0 {
		t.Error("zero vector must pass through with scale 0")
	}
}

// TestTopKTieBreakDeterministic pins the tie-break contract: when update
// magnitudes tie, the k lowest indices win. With an unstable magnitude-only
// comparator the selection among ties is arbitrary (and changes with the
// sort implementation), breaking seeded bit-exact reproducibility; this
// test fails on that pre-fix comparator.
func TestTopKTieBreakDeterministic(t *testing.T) {
	// Magnitude-2 components scattered through magnitude-1 filler: the
	// input is far from sorted, so the sort really partitions, and the 2s
	// form one large tie group. With fraction 1/6 only 2s are selected,
	// and the contract says the lowest-indexed ones win.
	const dim = 256
	m := NewTopK(dim, 1.0/6, 8)
	zero := make([]float64, dim)
	m.PostIterate(0, zero) // reference model = 0

	x := make([]float64, dim)
	for j := range x {
		x[j] = 1
		if j%3 == 2 {
			x[j] = 2
		}
	}
	contrib, _, _ := m.PrepareUpload(0, x)
	k := dim / 6 // 42 slots for 85 tied 2s
	var got, want []int
	for j := 0; j < dim; j++ {
		if contrib[j] != 0 {
			got = append(got, j)
		}
	}
	for n := 0; n < k; n++ {
		want = append(want, 2+3*n) // the k lowest-indexed 2s
	}
	if len(got) != len(want) {
		t.Fatalf("selected %d components, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie selection not index-ordered: got %v..., want %v...", got[:i+1], want[:i+1])
		}
	}

	// Mixed magnitudes with a tie group: the two 5s win outright, the
	// remaining two slots go to the lowest-indexed 1s.
	m2 := NewTopK(8, 0.5, 8)
	m2.PostIterate(0, make([]float64, 8))
	x2 := []float64{5, 1, 1, -1, 1, 1, 1, -5}
	contrib2, _, _ := m2.PrepareUpload(0, x2)
	want2 := []float64{5, 1, 1, 0, 0, 0, 0, -5}
	for j := range want2 {
		if contrib2[j] != want2[j] {
			t.Fatalf("mixed-ties selection: contrib = %v, want %v", contrib2, want2)
		}
	}

	// Two identical fresh instances must make identical selections.
	a, b := NewTopK(dim, 0.1, 8), NewTopK(dim, 0.1, 8)
	a.PostIterate(0, zero)
	b.PostIterate(0, zero)
	ca, _, _ := a.PrepareUpload(0, x)
	cb, _, _ := b.PrepareUpload(0, x)
	for j := range ca {
		if ca[j] != cb[j] {
			t.Fatalf("identical instances diverged at component %d", j)
		}
	}
}
