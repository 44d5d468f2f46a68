package fl

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Exact order-invariant accumulation.
//
// IEEE float addition is not associative, so a weighted mean computed by
// chaining float adds depends on summation order — and therefore on how
// clients are partitioned across relays in a hierarchical topology. To
// make pre-aggregation bit-exact under ANY client→relay partitioning,
// the canonical weighted mean is defined over an exact integer
// accumulator instead:
//
//	S[j] = Σ_k fix(w_k · c_k[j])      W = Σ_k fix(w_k)
//	mean[j] = float64(S[j]) / float64(W)
//
// where fix(x) is x·2^64 rounded to the nearest signed 128-bit integer
// (ties to even) — i.e. signed fixed point with 64 fractional bits — and
// float64(·) is the correctly-rounded conversion back. Each product is a
// single float64 multiply (deterministic), its conversion is
// deterministic, and 128-bit integer addition is exact, associative, and
// commutative: any arrival order, sharding, or relay grouping of the
// same contributions produces identical bits.
//
// Range and precision: magnitudes below 2^-1022 scale to well under half
// a unit and round to zero; products with |p| ≥ 2^-12 convert exactly
// (53-bit mantissa above the 2^-64 grid); the accumulator holds sums up
// to |Σ| < 2^63, far beyond any sane model geometry — overflow is
// detected and poisons the aggregate loudly rather than wrapping.

// ErrAccumOverflow is returned (wrapped) when an exact accumulator
// overflows its ±2^63 range. A mid-fold overflow poisons the partial
// (sticky): the column state is already half-mutated, so the whole
// aggregate is discarded rather than silently wrong.
var ErrAccumOverflow = errors.New("fl: exact accumulator overflow")

// fixFromFloat converts x into round-to-nearest-even(x·2^64) as a
// two's-complement 128-bit (lo, hi) pair. ok is false when x is
// non-finite or |x| ≥ 2^63 (outside the accumulator's range).
func fixFromFloat(x float64) (lo, hi uint64, ok bool) {
	b := math.Float64bits(x)
	mant := b&(1<<52-1) | 1<<52
	shift := int(b>>52&0x7ff) - 1011 // x·2^64 = ±mant·2^shift, mant ∈ [2^52, 2^53)
	switch {
	case shift >= 75:
		return 0, 0, false // |x| ≥ 2^63, NaN or ±Inf
	case shift >= 0:
		lo, hi = fixWindow(b, shift)
		return lo, hi, true
	case shift >= -53:
		// Fractional tail dropped: round to nearest, ties to even.
		s := uint(-shift)
		r := mant >> s
		if mant>>(s-1)&1 == 1 && (mant&(1<<(s-1)-1) != 0 || r&1 == 1) {
			r++
		}
		lo = r
	default:
		// ±0, a subnormal, or mant·2^shift < 1/2 strictly: rounds to zero.
		return 0, 0, true
	}
	if b>>63 == 1 {
		lo, hi = negate128(lo, hi)
	}
	return lo, hi, true
}

// fixWindow is fixFromFloat, inlinable, over the common window
// 2^-12 ≤ |x| < 2^63 (0 ≤ shift < 75) where it is an exact shift; b is
// x's bit pattern. Over-wide Go shifts are 0, so one expression covers
// both words, and the sign applies branch-free: -v = ^v + 1 under a mask.
func fixWindow(b uint64, shift int) (lo, hi uint64) {
	mant := b&(1<<52-1) | 1<<52
	lo = mant << uint(shift)
	hi = mant>>uint(64-shift) | mant<<uint(shift-64)
	m := -(b >> 63)
	var c uint64
	lo, c = bits.Add64(lo^m, m&1, 0)
	return lo, hi ^ m + c
}

// negate128 returns the two's-complement negation of (lo, hi).
func negate128(lo, hi uint64) (uint64, uint64) {
	nlo, borrow := bits.Sub64(0, lo, 0)
	nhi, _ := bits.Sub64(0, hi, borrow)
	return nlo, nhi
}

// fixAdd adds two signed 128-bit values. ok is false on signed overflow
// (operands share a sign the result lost).
func fixAdd(alo, ahi, blo, bhi uint64) (lo, hi uint64, ok bool) {
	var c uint64
	lo, c = bits.Add64(alo, blo, 0)
	hi, _ = bits.Add64(ahi, bhi, c)
	return lo, hi, (ahi^bhi)>>63 != 0 || (ahi^hi)>>63 == 0
}

// fixToFloat converts a signed 128-bit fixed-point value (64 fractional
// bits) to the nearest float64, ties to even. A value that fits in an
// int64 is one hardware conversion (round-to-nearest-even) and an exact
// scaling by 2^-64. A wider value is first shifted right to 63 bits plus
// sign, with every dropped bit ORed into the lowest kept bit: the shifted
// value keeps 10 bits below the float64 mantissa, so that sticky bit
// leaves the rounding decision of the full 128-bit value unchanged, and
// the scaling back by 2^(s-64) is exact again.
func fixToFloat(lo, hi uint64) float64 {
	if hi == uint64(int64(lo)>>63) {
		return float64(int64(lo)) * 0x1p-64
	}
	s := uint(65 - bits.LeadingZeros64(hi^uint64(int64(hi)>>63))) // 1 ≤ s ≤ 64
	m := hi<<(64-s) | lo>>s
	if lo<<(64-s) != 0 {
		m |= 1
	}
	return float64(int64(m)) * math.Float64frombits(uint64(1023+int(s)-64)<<52)
}

// Partial is the mergeable state of an exact weighted sum: per-coordinate
// fixed-point column sums plus the fixed-point total weight and the
// contribution count. Because every field is an exact integer sum,
// partials from any disjoint grouping of the same contributions merge to
// identical bits — the property the hierarchical relay tier rests on.
// Weight and count ride along so weighted FedAvg over merged partials
// equals the flat computation exactly.
type Partial struct {
	// Count is the number of client contributions folded in, transitively
	// through merges.
	Count int
	// WeightLo/WeightHi hold the exact fixed-point total weight
	// (two's complement, 64 fractional bits).
	WeightLo, WeightHi uint64
	// Cols holds the exact per-coordinate sums, two words per coordinate:
	// lo at 2j, hi at 2j+1. Empty until the first fold fixes the
	// dimension.
	Cols []uint64

	poisoned bool
}

// Reset clears the partial for reuse, keeping column capacity.
func (p *Partial) Reset() {
	p.Count, p.WeightLo, p.WeightHi = 0, 0, 0
	p.Cols = p.Cols[:0]
	p.poisoned = false
}

// Dim returns the coordinate count (0 until the first fold).
func (p *Partial) Dim() int { return len(p.Cols) / 2 }

// Poisoned reports whether an accumulator overflow invalidated the
// partial; a poisoned partial refuses further folds and never aggregates.
func (p *Partial) Poisoned() bool { return p.poisoned }

// adopt sizes the columns for dim coordinates when the partial is still
// empty, zeroing any reused capacity.
func (p *Partial) adopt(dim int) {
	if cap(p.Cols) < 2*dim {
		p.Cols = make([]uint64, 2*dim)
		return
	}
	p.Cols = p.Cols[:2*dim]
	for i := range p.Cols {
		p.Cols[i] = 0
	}
}

// ErrOutOfRange is returned (wrapped) when a contribution carries a finite
// weight or weighted scalar w·v with |w·v| ≥ 2^63, outside the exact
// accumulator's range. It is caught before the contribution counts, so
// one hostile scalar is refused like a non-finite one instead of
// poisoning the round.
var ErrOutOfRange = errors.New("fl: contribution outside the exact range")

// checkWeight refuses a NaN, Inf or negative weight (ErrNonFinite) and a
// weight outside ±2^63 (ErrOutOfRange).
func checkWeight(weight float64) error {
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("%w: weight %v", ErrNonFinite, weight)
	}
	if !(weight < 0x1p63) {
		return fmt.Errorf("%w: weight %v", ErrOutOfRange, weight)
	}
	return nil
}

// scalarError types the refusal of scalar j, whose weighted product
// failed the range check: ErrNonFinite for a NaN or Inf scalar,
// ErrOutOfRange for a finite one.
func scalarError(contrib []float64, j int, weight float64) error {
	v := contrib[j]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: scalar %d is %v", ErrNonFinite, j, v)
	}
	return fmt.Errorf("%w: scalar %d is %v at weight %v", ErrOutOfRange, j, v, weight)
}

// checkContrib validates one weighted contribution without touching any
// state, naming the first offending index; one range check per product
// also catches NaN and Inf.
func checkContrib(contrib []float64, weight float64) error {
	if err := checkWeight(weight); err != nil {
		return err
	}
	for j, v := range contrib {
		if !(math.Abs(weight*v) < 0x1p63) {
			return scalarError(contrib, j, weight)
		}
	}
	return nil
}

// prepare runs a fold's up-front checks — poison, length, weight — and
// sizes the columns when the partial is still empty. Nothing changes on
// error.
func (p *Partial) prepare(contrib []float64, weight float64) error {
	if p.poisoned {
		return fmt.Errorf("%w: partial is poisoned", ErrAccumOverflow)
	}
	if (p.Count > 0 || len(p.Cols) != 0) && 2*len(contrib) != len(p.Cols) {
		return fmt.Errorf("%w: payload length %d, partial holds %d",
			ErrLengthMismatch, len(contrib), p.Dim())
	}
	if err := checkWeight(weight); err != nil {
		return err
	}
	if len(p.Cols) == 0 && len(contrib) > 0 {
		p.adopt(len(contrib))
	}
	return nil
}

// foldRange adds fix(w·contrib[j]) into the columns of [lo, hi); disjoint
// ranges may run concurrently. The conversion is the range check: at the
// first product outside ±2^63 (or NaN) the coordinates already added are
// folded again at weight -w — fix is odd and 128-bit addition wraps, so
// every column is restored bit for bit — and that index is returned.
// Otherwise bad is -1 and overflow reports a column sum leaving range.
func (p *Partial) foldRange(contrib []float64, w float64, lo, hi int) (bad int, overflow bool) {
	cols := p.Cols[2*lo : 2*hi]
	for j, v := range contrib[lo:hi] {
		x := w * v
		var plo, phi uint64
		ok := true
		b := math.Float64bits(x)
		if shift := int(b>>52&0x7ff) - 1011; uint(shift) < 75 {
			plo, phi = fixWindow(b, shift) // the common window, inlined
		} else if plo, phi, ok = fixFromFloat(x); !ok {
			p.foldRange(contrib, -w, lo, lo+j)
			return lo + j, false
		}
		cols[2*j], cols[2*j+1], ok = fixAdd(cols[2*j], cols[2*j+1], plo, phi)
		overflow = overflow || !ok
	}
	return -1, overflow
}

// settle finishes a fold whose shards ran: a refused scalar (bad ≥ 0,
// every shard already taken back out) leaves the partial as it was; a
// column overflow poisons it; otherwise the weight is added and the
// contribution counted.
func (p *Partial) settle(contrib []float64, weight float64, bad int, overflow bool) error {
	if bad >= 0 {
		if p.Count == 0 {
			p.Cols = p.Cols[:0] // the refused contribution sized them
		}
		return scalarError(contrib, bad, weight)
	}
	if overflow {
		p.poisoned = true
		return fmt.Errorf("%w: column sum", ErrAccumOverflow)
	}
	wlo, whi, _ := fixFromFloat(weight) // in range: prepare checked it
	var ok bool
	if p.WeightLo, p.WeightHi, ok = fixAdd(p.WeightLo, p.WeightHi, wlo, whi); !ok {
		p.poisoned = true
		return fmt.Errorf("%w: total weight", ErrAccumOverflow)
	}
	p.Count++
	return nil
}

// Fold adds one weighted contribution exactly. Non-finite scalars,
// non-finite or negative weights (ErrNonFinite), weights or products
// outside ±2^63 (ErrOutOfRange), and payload lengths disagreeing with the
// partial's dimension (ErrLengthMismatch) are refused and leave the
// partial as it was. Only a genuine accumulator overflow — a sum of
// in-range products leaving ±2^63 — poisons the partial and returns
// ErrAccumOverflow.
func (p *Partial) Fold(contrib []float64, weight float64) error {
	if err := p.prepare(contrib, weight); err != nil {
		return err
	}
	bad, overflow := p.foldRange(contrib, weight, 0, len(contrib))
	return p.settle(contrib, weight, bad, overflow)
}

// Merge folds another partial in exactly. Integer addition makes the
// result order- and grouping-invariant: merging per-relay partials in any
// order yields the same bits as folding every underlying contribution
// into one flat partial. A dimension disagreement (ErrLengthMismatch), a
// negative count or weight, a poisoned source, or an overflow
// (ErrAccumOverflow, poisoning) is rejected.
func (p *Partial) Merge(q *Partial) error {
	if p.poisoned {
		return fmt.Errorf("%w: partial is poisoned", ErrAccumOverflow)
	}
	if q.poisoned {
		return fmt.Errorf("%w: source partial is poisoned", ErrAccumOverflow)
	}
	if q.Count < 0 {
		return fmt.Errorf("fl: merge of partial with negative count %d", q.Count)
	}
	if int64(q.WeightHi) < 0 {
		return fmt.Errorf("%w: negative partial weight", ErrNonFinite)
	}
	if len(q.Cols) != 0 && len(q.Cols)%2 != 0 {
		return fmt.Errorf("fl: merge of partial with odd column length %d", len(q.Cols))
	}
	if len(p.Cols) != 0 && len(q.Cols) != 0 && len(p.Cols) != len(q.Cols) {
		return fmt.Errorf("%w: partial dim %d, source dim %d",
			ErrLengthMismatch, p.Dim(), q.Dim())
	}
	if len(p.Cols) == 0 && len(q.Cols) != 0 {
		p.adopt(q.Dim())
	}
	var ok bool
	for j := 0; j < len(q.Cols); j += 2 {
		if p.Cols[j], p.Cols[j+1], ok = fixAdd(p.Cols[j], p.Cols[j+1], q.Cols[j], q.Cols[j+1]); !ok {
			p.poisoned = true
			return fmt.Errorf("%w: coordinate %d", ErrAccumOverflow, j/2)
		}
	}
	if p.WeightLo, p.WeightHi, ok = fixAdd(p.WeightLo, p.WeightHi, q.WeightLo, q.WeightHi); !ok {
		p.poisoned = true
		return fmt.Errorf("%w: total weight", ErrAccumOverflow)
	}
	p.Count += q.Count
	return nil
}

// total returns the float total weight a mean divides by, and false when
// nothing aggregates: zero contributions, a non-positive total weight, or
// a poisoned partial. dst must match the partial's dimension.
func (p *Partial) total(dst []float64) (float64, bool) {
	if p.poisoned || p.Count == 0 {
		return 0, false
	}
	if int64(p.WeightHi) < 0 || (p.WeightHi == 0 && p.WeightLo == 0) {
		return 0, false
	}
	if 2*len(dst) != len(p.Cols) {
		panic(fmt.Sprintf("fl: mean into %d coordinates from a %d-dim partial", len(dst), p.Dim()))
	}
	return fixToFloat(p.WeightLo, p.WeightHi), true
}

// meanRange writes coordinates [lo, hi) of the mean over total weight w.
func (p *Partial) meanRange(dst []float64, w float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] = fixToFloat(p.Cols[2*j], p.Cols[2*j+1]) / w
	}
}

// Mean writes the exact weighted mean into dst. Returns false with dst
// untouched when nothing aggregates: zero contributions, a non-positive
// total weight, or a poisoned partial. dst must match the partial's
// dimension.
func (p *Partial) Mean(dst []float64) bool {
	w, ok := p.total(dst)
	if ok {
		p.meanRange(dst, w, 0, len(dst))
	}
	return ok
}
