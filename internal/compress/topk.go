package compress

import (
	"fmt"
	"sort"

	"apf/internal/fl"
)

// TopK is the magnitude-based sparsification baseline of the §2.2 family
// (Dryden et al. [20], Strom [53]): each round a client pushes only the k%
// largest-magnitude components of its accumulated update; the remainder
// accumulates locally as a residual and is retried later. Like Gaia and
// CMFL it compresses only the push phase and decides from instantaneous
// magnitudes, blind to long-term convergence — the structural contrast
// with APF.
type TopK struct {
	dim           int
	fraction      float64
	bytesPerValue int64

	lastGlobal  []float64
	residual    []float64
	initialized bool
}

var _ fl.SyncManager = (*TopK)(nil)

// NewTopK constructs the baseline pushing the given fraction (0, 1] of
// components per round.
func NewTopK(dim int, fraction float64, bytesPerValue int) *TopK {
	if dim <= 0 {
		panic(fmt.Sprintf("compress: invalid TopK dim %d", dim))
	}
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("compress: TopK fraction %v out of (0,1]", fraction))
	}
	return &TopK{
		dim:           dim,
		fraction:      fraction,
		bytesPerValue: int64(bytesPerValue),
		lastGlobal:    make([]float64, dim),
		residual:      make([]float64, dim),
	}
}

// PostIterate captures the round-0 reference model on first call.
func (m *TopK) PostIterate(_ int, x []float64) {
	if !m.initialized {
		copy(m.lastGlobal, x)
		m.initialized = true
	}
}

// PrepareUpload pushes the top-fraction components of update+residual by
// absolute value; each sparse value carries a 4-byte index.
func (m *TopK) PrepareUpload(_ int, x []float64) ([]float64, float64, int64) {
	k := int(m.fraction * float64(m.dim))
	if k < 1 {
		k = 1
	}
	u := make([]float64, m.dim)
	for j := 0; j < m.dim; j++ {
		u[j] = x[j] - m.lastGlobal[j] + m.residual[j]
	}
	// Select the k largest |u|. Sorting indices is O(d log d) — fine at
	// model scale, and simpler than a quickselect for this baseline.
	order := make([]int, m.dim)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := u[order[a]], u[order[b]]
		if ua < 0 {
			ua = -ua
		}
		if ub < 0 {
			ub = -ub
		}
		if ua != ub {
			return ua > ub
		}
		// Equal magnitudes tie-break by index: sort.Slice is unstable, and
		// an arbitrary tie selection would make the pushed set (and with it
		// every seeded baseline experiment) nondeterministic.
		return order[a] < order[b]
	})

	contrib := append([]float64(nil), m.lastGlobal...)
	selected := make(map[int]bool, k)
	for _, j := range order[:k] {
		contrib[j] = m.lastGlobal[j] + u[j]
		selected[j] = true
	}
	for j := 0; j < m.dim; j++ {
		if selected[j] {
			m.residual[j] = 0
		} else {
			m.residual[j] = u[j]
		}
	}
	return contrib, 1, int64(k) * (m.bytesPerValue + 4)
}

// ApplyDownload pulls the full model (push-only compression).
func (m *TopK) ApplyDownload(_ int, x, global []float64) int64 {
	copy(x, global)
	copy(m.lastGlobal, global)
	return int64(m.dim) * m.bytesPerValue
}
