// Package hotbench builds deterministic steady-state fixtures for the
// round-critical APF hot path, shared by the `go test -bench` benchmarks
// (bench_test.go) and by `apfbench -hotpath`, which measures the same
// cases with testing.Benchmark and writes BENCH_hotpath.json so the perf
// trajectory of the hot path is tracked across PRs.
//
// The fixtures use only public core APIs: a Manager is driven through one
// real warm-up window so that an exact, configurable fraction of the model
// freezes (oscillating scalars stabilize, drifting scalars never do), and
// the freezing periods are made effectively infinite so the mask stays
// static over millions of benchmark rounds — the steady state in which the
// per-round cost must be measured.
package hotbench

import (
	"apf/internal/core"
	"apf/internal/fl"
)

// Case is one point of the hot-path benchmark grid.
type Case struct {
	Dim    int
	Frozen float64 // target frozen ratio in [0, 1)
}

// Cases returns the benchmark grid: Dim ∈ {10k, 1M} × frozen ∈ {0, 0.5, 0.95}.
func Cases() []Case {
	var cs []Case
	for _, dim := range []int{10_000, 1_000_000} {
		for _, fr := range []float64{0, 0.5, 0.95} {
			cs = append(cs, Case{Dim: dim, Frozen: fr})
		}
	}
	return cs
}

// warmupRounds is the check interval of the fixture manager; the warm-up
// drives exactly one window so the first stability check fires on its last
// round.
const warmupRounds = 64

// NewManagerAt returns a manager over dim scalars whose mask is frozen at
// the requested ratio and will remain so for ~67M further rounds, together
// with the model vector and the first round the caller should drive.
//
// Construction: scalars [0, frozen·dim) receive updates that cancel out
// over the warm-up window (accumulated delta exactly 0 → perfectly
// stable), the rest drift monotonically (effective perturbation 1 → never
// stable). The Fixed freezing policy then pins the stable set for 2^20
// checks, so benchmark iterations never cross an unfreeze.
func NewManagerAt(dim int, frozen float64) (*core.Manager, []float64, int) {
	return NewManagerAtObserved(dim, frozen, nil)
}

// NewManagerAtObserved is NewManagerAt with a telemetry observer wired
// into the manager (core.Config.Observer). The instrumented and
// uninstrumented fixtures are otherwise identical, so benchmarking both
// isolates the observer's cost on the steady-state hot path.
func NewManagerAtObserved(dim int, frozen float64, obs core.Observer) (*core.Manager, []float64, int) {
	m := core.NewManager(core.Config{
		Dim:              dim,
		CheckEveryRounds: warmupRounds,
		Threshold:        0.5,
		EMAAlpha:         0.9,
		Policy:           core.Fixed{Checks: 1 << 20},
		Seed:             1,
		Observer:         obs,
	})
	x := make([]float64, dim)
	nFrozen := int(frozen * float64(dim))
	for round := 0; round < warmupRounds; round++ {
		if round > 0 && round < warmupRounds-1 {
			// Updates in rounds 1..62: 31 of each sign for the stable
			// set (sums to zero since the count is even), +1 drift for
			// the unstable set.
			osc := float64(1 - 2*(round%2))
			for j := 0; j < nFrozen; j++ {
				x[j] += osc
			}
			for j := nFrozen; j < dim; j++ {
				x[j] += 1
			}
		}
		m.PostIterate(round, x)
		contrib, _, _ := m.PrepareUpload(round, x)
		m.ApplyDownload(round, x, contrib)
	}
	return m, x, warmupRounds
}

// Round drives one full steady-state client round through the manager:
// rollback, upload preparation, the compact wire codec in both directions,
// and the download merge (which runs the stability check on boundaries).
func Round(m *core.Manager, round int, x []float64) {
	m.PostIterate(round, x)
	contrib, _, _ := m.PrepareUpload(round, x)
	compact := m.CompactUpload(round, contrib)
	dense := m.ExpandDownload(round, compact)
	m.ApplyDownload(round, x, dense)
}

// AggregateClients is the client count of the aggregation benchmark (the
// paper's testbed size).
const AggregateClients = 10

// NewAggregateInput builds deterministic per-client contributions and
// weights for a dim-scalar aggregation benchmark.
func NewAggregateInput(dim int) (contribs [][]float64, weights []float64) {
	contribs = make([][]float64, AggregateClients)
	weights = make([]float64, AggregateClients)
	for c := range contribs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((j+c)%17) - 8
		}
		contribs[c] = v
		weights[c] = 1 + float64(c%3)
	}
	return contribs, weights
}

// ExactAggregate runs one coordinator round over the contributions
// through agg's Open/Add/Reduce — the exact path every mean-mode round
// takes — and reports whether it aggregated.
func ExactAggregate(agg *fl.Aggregator, dst []float64, contribs [][]float64, weights []float64) bool {
	agg.Open(0, len(contribs))
	for id, c := range contribs {
		if agg.Add(id, c, weights[id]) != nil {
			agg.Discard()
			return false
		}
	}
	_, ok := agg.Reduce(dst)
	return ok
}

// SerialAggregate reproduces the engine's pre-optimization server-side
// aggregation verbatim (fresh output vector, one serial float pass per
// client); it is the in-run reference arm ExactAggregate is timed
// against.
func SerialAggregate(dim int, contribs [][]float64, weights []float64) []float64 {
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}
	next := make([]float64, dim)
	if totalW == 0 {
		return next
	}
	for c, contrib := range contribs {
		if weights[c] == 0 {
			continue
		}
		w := weights[c] / totalW
		for j, v := range contrib {
			next[j] += w * v
		}
	}
	return next
}
