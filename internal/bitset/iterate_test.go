package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// randomSet builds a bitmap of n bits where each bit is set with
// probability p, plus the plain bool reference.
func randomSet(t *testing.T, rng *rand.Rand, n int, p float64) (*BitSet, []bool) {
	t.Helper()
	b := New(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
			ref[i] = true
		}
	}
	return b, ref
}

// lengths exercises word boundaries: sub-word, aligned, and ragged tails.
var lengths = []int{0, 1, 63, 64, 65, 127, 128, 130, 1000}

func TestIterateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		b, ref := randomSet(t, rng, n, 0.4)
		var got []int
		b.IterateSet(func(i int) { got = append(got, i) })
		var want []int
		for j, set := range ref {
			if set {
				want = append(want, j)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d IterateSet visited %d bits, want %d", n, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d IterateSet[%d] = %d, want %d", n, k, got[k], want[k])
			}
		}
	}
}

func TestIterateClear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.5, 1} {
			b, ref := randomSet(t, rng, n, p)
			var got []int
			b.IterateClear(func(i int) { got = append(got, i) })
			var want []int
			for j, set := range ref {
				if !set {
					want = append(want, j)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d p=%v IterateClear visited %d bits, want %d", n, p, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d IterateClear[%d] = %d, want %d", n, k, got[k], want[k])
				}
			}
		}
	}
}

func TestApplyMaskedUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.2, 0.5, 0.97, 1} {
			b, ref := randomSet(t, rng, n, p)
			src := make([]float64, n)
			for j := range src {
				src[j] = rng.NormFloat64()
			}
			dstM := make([]float64, n)
			dstU := make([]float64, n)
			for j := range dstM {
				dstM[j], dstU[j] = -1, -1
			}
			b.ApplyMasked(dstM, src)
			b.ApplyUnmasked(dstU, src)
			for j := range ref {
				wantM, wantU := -1.0, src[j]
				if ref[j] {
					wantM, wantU = src[j], -1.0
				}
				if dstM[j] != wantM {
					t.Fatalf("n=%d p=%v ApplyMasked[%d] = %v, want %v", n, p, j, dstM[j], wantM)
				}
				if dstU[j] != wantU {
					t.Fatalf("n=%d p=%v ApplyUnmasked[%d] = %v, want %v", n, p, j, dstU[j], wantU)
				}
			}
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.3, 0.96, 1} {
			b, ref := randomSet(t, rng, n, p)
			src := make([]float64, n)
			fill := make([]float64, n)
			for j := range src {
				src[j] = rng.NormFloat64()
				fill[j] = 100 + float64(j)
			}

			compact := b.GatherUnmasked(nil, src)
			wantLen := n - b.Count()
			if len(compact) != wantLen {
				t.Fatalf("n=%d p=%v gather produced %d values, want %d", n, p, len(compact), wantLen)
			}
			k := 0
			for j, set := range ref {
				if !set {
					if compact[k] != src[j] {
						t.Fatalf("n=%d compact[%d] = %v, want src[%d] = %v", n, k, compact[k], j, src[j])
					}
					k++
				}
			}

			dst := make([]float64, n)
			if used := b.ScatterUnmasked(dst, compact, fill); used != wantLen {
				t.Fatalf("n=%d scatter consumed %d values, want %d", n, used, wantLen)
			}
			for j, set := range ref {
				want := src[j]
				if set {
					want = fill[j]
				}
				if dst[j] != want {
					t.Fatalf("n=%d p=%v scatter[%d] = %v, want %v", n, p, j, dst[j], want)
				}
			}
		}
	}
}

func TestFillMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range lengths {
		b, ref := randomSet(t, rng, n, 0.5)
		f := New(n)
		f.Fill(func(i int) bool { return ref[i] })
		if !slices.Equal(f.Words(), b.Words()) {
			t.Fatalf("n=%d Fill disagrees with Set", n)
		}
		// Refilling with an all-false predicate must clear stale words.
		f.Fill(func(int) bool { return false })
		if f.Count() != 0 {
			t.Fatalf("n=%d Fill(false) left %d bits set", n, f.Count())
		}
	}
}
