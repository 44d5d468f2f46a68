package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/preset"
	"apf/internal/stats"
	"apf/internal/transport"
	"apf/internal/wire"
)

// workload is one benchmark input: a topology, a model, a codec and a
// fault schedule, all generated from the seed.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// rounds is the length of one cluster run.
	rounds int
	// contract marks the workloads BENCHMARK.json lists; the others run
	// only on request.
	contract bool
	build    func(seed int64, rounds int, env *buildEnv) (*clusterSpec, error)
}

// buildEnv carries the per-cluster context a workload's build needs.
type buildEnv struct {
	// tr is the traced run's recorder (nil when untraced): the build wraps
	// the layers, optimizer and manager of every client it creates.
	tr *tracer
	// dir is a fresh private directory for durable state.
	dir string
}

// clusterSpec is everything one cluster run needs.
type clusterSpec struct {
	rounds int
	// server is the flat server, or the root when relay is set. The
	// runner fills in Listener and Metrics.
	server transport.ServerConfig
	// relay, when non-nil, sits between the clients and the root. The
	// runner fills in Listener, Upstream, Dial and Metrics.
	relay *transport.RelayConfig
	// clients are the two trainers; the runner fills in Addr, Dial,
	// Metrics and OnRound (after any OnRound set here).
	clients []transport.ClientConfig
	// absences script client 1's severs (apf-q16-churn).
	absences []absence
	// denseGlobal: the server's returned global is the dense model, so
	// the clients' final models must equal it bit for bit. (APF servers
	// return only their last full-length aggregate.)
	denseGlobal bool
	// eval, when non-nil, scores client 0's model copies on held-out data.
	eval *evalSpec
}

// absence is one scripted disconnection of client 1: it severs right
// after applying round after and redials only once the server has
// committed gate rounds, so it must catch up to round gate-1.
type absence struct{ after, gate int }

// evalSpec defines final_acc and tta_s.
type evalSpec struct {
	model  fl.ModelFactory
	test   *data.Dataset
	target float64
	// stride is the copy interval of client 0's model (in rounds).
	stride int
}

// Shared client settings. Every client of a cluster uses the same Seed,
// as fl.Engine does, so a TCP run reproduces the simulator.
const (
	clientIOTimeout = 30 * time.Second
	// churnHistory is apf-q16-churn's HistoryRounds; every absence is
	// longer, so no rejoin can be served by replay.
	churnHistory = 2
	// churnAbsence is the length of each of client 1's absences, in
	// rounds the server commits without it.
	churnAbsence = churnHistory + 1
	// churnDeadline is apf-q16-churn's RoundDeadline. It exceeds a
	// rejoining client's one-round lag several times over, so partial
	// aggregation happens only in the scripted absent rounds and the
	// committed trajectory is a function of the seed.
	churnDeadline = 150 * time.Millisecond
	// denseHistory is dense-1m's explicit HistoryRounds: the default
	// (unbounded) would hold 8 MB per committed round.
	denseHistory = 4
)

var workloads = []*workload{
	{
		name:     "lenet-apf",
		why:      "paper workload as deployed: LeNet-5/Adam, Dirichlet split, APF sparse codec, durable flat server with default history",
		rounds:   150,
		contract: true,
		build:    buildLenet(false),
	},
	{
		name:     "dense-1m",
		why:      "full-sync baseline at 1M dim: passthrough clients, dense codec; bound by encode, decode, exact fold and fan-out",
		rounds:   30,
		contract: true,
		build:    buildDense,
	},
	{
		name:     "apf-q16-churn",
		why:      "fault-tolerant APF at 1M dim, sparse-q16, shadow server; client 1 severs past the history window and rejoins by catch-up",
		rounds:   64,
		contract: true,
		build:    buildChurn,
	},
	{
		name:   "lenet-apf-relay",
		why:    "lenet-apf behind one edge relay and a durable root; the root refuses the relay's compact partial at the first stability check",
		rounds: 40,
		build:  buildLenet(true),
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// apfConfig is the APF manager configuration cmd/apf-client deploys.
func apfConfig(seed int64) core.Config {
	return core.Config{CheckEveryRounds: 2, Threshold: 0.1, EMAAlpha: 0.85, Seed: seed}
}

// lenetLayers mirrors models.LeNet5(rng, 1, 16, 10) layer for layer, so
// the traced run can wrap each layer; TestLenetLayersMirrorPreset pins
// the two to the same parameters and outputs.
func lenetLayers(rng *rand.Rand) []nn.Layer {
	return []nn.Layer{
		nn.NewConv2D(rng, "conv1", 1, 6, 5, 1, 0),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(rng, "conv2", 6, 16, 5, 1, 0),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 16, 120),
		nn.NewReLU(),
		nn.NewDense(rng, "fc2", 120, 84),
		nn.NewReLU(),
		nn.NewDense(rng, "fc3", 84, 10),
	}
}

// denseLayers is the ~1M-parameter model of dense-1m and apf-q16-churn
// (dim 999,376): large on the wire, cheap to train.
func denseLayers(rng *rand.Rand) []nn.Layer {
	return []nn.Layer{
		nn.NewFlatten(),
		nn.NewDense(rng, "fc1", 1024, 960),
		nn.NewReLU(),
		nn.NewDense(rng, "fc2", 960, 16),
	}
}

// lenetSetup is the seed-derived part of lenet-apf shared with the
// simulator oracle test: the preset, the clients' shards, and a held-out
// set drawn from the preset's own class prototypes.
type lenetSetup struct {
	preset preset.Preset
	parts  [][]int
	test   *data.Dataset
}

const (
	lenetIters  = 4   // cmd/apf-client's default local iterations
	lenetAlpha  = 1.0 // cmd/apf-client's default Dirichlet concentration
	lenetTarget = 0.9 // tta_s target accuracy
	lenetStride = 5   // tta_s model-copy stride (rounds)
	lenetTest   = 200 // held-out samples
)

func newLenetSetup(seed int64) (*lenetSetup, error) {
	p, err := preset.Load("lenet", seed)
	if err != nil {
		return nil, err
	}
	n := p.Data.Len()
	// SynthImages draws samples sequentially from the seed, so a longer
	// draw repeats the preset's data and appends fresh held-out samples
	// of the same classes.
	all := data.SynthImages(data.ImageConfig{
		Classes: 10, Channels: 1, Size: 16, Samples: n + lenetTest, NoiseStd: 0.8, Seed: seed,
	})
	held := make([]int, lenetTest)
	for i := range held {
		held[i] = n + i
	}
	parts := data.PartitionDirichlet(stats.SplitRNG(seed, 1), p.Data.Labels, p.Data.Classes, 2, lenetAlpha)
	return &lenetSetup{preset: p, parts: parts, test: all.Subset(held)}, nil
}

// canonicalInit is the initial global fl.Engine derives from the seed.
func canonicalInit(model fl.ModelFactory, seed int64) []float64 {
	return nn.FlattenParams(model(stats.SplitRNG(seed, 1_000_000)).Params(), nil)
}

func buildLenet(relay bool) func(seed int64, rounds int, env *buildEnv) (*clusterSpec, error) {
	return func(seed int64, rounds int, env *buildEnv) (*clusterSpec, error) {
		ls, err := newLenetSetup(seed)
		if err != nil {
			return nil, err
		}
		plain := func(rng *rand.Rand) *nn.Network { return nn.NewNetwork(lenetLayers(rng)...) }
		spec := &clusterSpec{
			rounds: rounds,
			server: transport.ServerConfig{
				NumClients:    2,
				Rounds:        rounds,
				Init:          canonicalInit(plain, seed),
				IOTimeout:     clientIOTimeout,
				Codec:         wire.CodecSparse,
				CheckpointDir: filepath.Join(env.dir, "server"),
			},
			eval: &evalSpec{model: plain, test: ls.test, target: lenetTarget, stride: lenetStride},
		}
		if relay {
			spec.server.NumClients = 0
			spec.server.Relays = 1
			spec.relay = &transport.RelayConfig{
				Name:       "edge-0",
				SessionKey: "edge-0",
				NumClients: 2,
				IOTimeout:  clientIOTimeout,
				Codec:      wire.CodecSparse,
				Seed:       seed,
			}
		}
		for c := 0; c < 2; c++ {
			ct := env.tr.client(c)
			spec.clients = append(spec.clients, transport.ClientConfig{
				Name:       fmt.Sprintf("shard-%d", c),
				SessionKey: fmt.Sprintf("shard-%d", c),
				Model:      ct.model(lenetLayers),
				Optimizer:  ct.optimizer(ls.preset.Optimizer),
				Manager:    ct.apfManager(apfConfig(seed)),
				Data:       ls.preset.Data,
				Indices:    ls.parts[c],
				LocalIters: lenetIters,
				BatchSize:  ls.preset.Batch,
				Seed:       seed,
				IOTimeout:  clientIOTimeout,
				Codec:      wire.CodecSparse,
			})
		}
		return spec, nil
	}
}

// denseData is the synthetic 32×32 image task of the two 1M-dim
// workloads.
func denseData(seed int64) (*data.Dataset, [][]int) {
	ds := data.SynthImages(data.ImageConfig{
		Classes: 16, Channels: 1, Size: 32, Samples: 256, NoiseStd: 0.8, Seed: seed,
	})
	return ds, data.PartitionIID(stats.SplitRNG(seed, 1), ds.Len(), 2)
}

func buildDense(seed int64, rounds int, env *buildEnv) (*clusterSpec, error) {
	ds, parts := denseData(seed)
	plain := func(rng *rand.Rand) *nn.Network { return nn.NewNetwork(denseLayers(rng)...) }
	spec := &clusterSpec{
		rounds: rounds,
		server: transport.ServerConfig{
			NumClients:    2,
			Rounds:        rounds,
			Init:          canonicalInit(plain, seed),
			IOTimeout:     clientIOTimeout,
			HistoryRounds: denseHistory,
		},
		denseGlobal: true,
	}
	sgd := func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.05, 0, 0) }
	for c := 0; c < 2; c++ {
		ct := env.tr.client(c)
		spec.clients = append(spec.clients, transport.ClientConfig{
			Name:       fmt.Sprintf("shard-%d", c),
			SessionKey: fmt.Sprintf("shard-%d", c),
			Model:      ct.model(denseLayers),
			Optimizer:  ct.optimizer(sgd),
			Manager:    ct.syncManager(func() fl.SyncManager { return fl.NewPassthroughManager(8) }),
			Data:       ds,
			Indices:    parts[c],
			LocalIters: 1,
			BatchSize:  4,
			Seed:       seed,
			IOTimeout:  clientIOTimeout,
			Codec:      wire.CodecDense,
		})
	}
	return spec, nil
}

func buildChurn(seed int64, rounds int, env *buildEnv) (*clusterSpec, error) {
	ds, parts := denseData(seed)
	plain := func(rng *rand.Rand) *nn.Network { return nn.NewNetwork(denseLayers(rng)...) }
	absences, err := churnSchedule(seed, rounds)
	if err != nil {
		return nil, err
	}
	// Snap the initial model to the stream's step grid: every value the
	// stream then produces is a small multiple of the step, which binary16
	// holds exactly, so the q16 rounding of updates and commits leaves
	// the oscillators' net motion exactly zero.
	init := canonicalInit(plain, seed)
	for j, v := range init {
		init[j] = math.Round(v/churnStep) * churnStep
	}
	stream := newChurnStream(seed, len(init))
	shadow := apfConfig(seed)
	spec := &clusterSpec{
		rounds: rounds,
		server: transport.ServerConfig{
			NumClients:    2,
			Rounds:        rounds,
			Init:          init,
			IOTimeout:     clientIOTimeout,
			RoundDeadline: churnDeadline,
			MinClients:    1,
			Codec:         wire.CodecSparseQ16,
			HistoryRounds: churnHistory,
			Shadow:        &shadow,
		},
		absences: absences,
	}
	for c := 0; c < 2; c++ {
		ct := env.tr.client(c)
		round := new(int)
		spec.clients = append(spec.clients, transport.ClientConfig{
			Name:       fmt.Sprintf("shard-%d", c),
			SessionKey: fmt.Sprintf("shard-%d", c),
			Model:      ct.model(denseLayers),
			Optimizer: ct.optimizer(func(p []*nn.Param) opt.Optimizer {
				return &churnOptimizer{params: p, stream: stream, round: round}
			}),
			Manager:        ct.apfManager(apfConfig(seed)),
			Data:           ds,
			Indices:        parts[c],
			LocalIters:     1,
			BatchSize:      1,
			Seed:           seed,
			IOTimeout:      clientIOTimeout,
			Codec:          wire.CodecSparseQ16,
			MaxRetries:     20,
			RetryBaseDelay: time.Millisecond,
			RetryMaxDelay:  10 * time.Millisecond,
			OnRound:        func(r int, _ []float64) { *round = r + 1 },
		})
	}
	return spec, nil
}

// churnSchedule places client 1's two absences, each lasting churnAbsence
// rounds (three past the history window); only their positions are
// seeded, so every seed spends the same share of rounds partial. The first starts before freezing has
// formed, so every mask word changes while the client is away and its
// rejoin needs the snapshot. The second lies inside the longest stretch
// of the second half in which the frozen oscillators stay frozen, so
// only the drifting and switching words change and the sketch suffices.
func churnSchedule(seed int64, rounds int) ([]absence, error) {
	rng := stats.SplitRNG(seed, 7_000_000)
	after := 1 + rng.Intn(2)
	out := []absence{{after: after, gate: after + 1 + churnAbsence}}

	// Rounds whose download touches the oscillators: a one-word manager
	// fed the oscillator stream shows them.
	cfg := apfConfig(seed)
	cfg.Dim = 1
	m := core.NewManager(cfg)
	x := []float64{0}
	var thaws []int
	for r := 0; r < rounds; r++ {
		x[0] += oscillation(r)
		m.PostIterate(r, x)
		c, _, _ := m.PrepareUpload(r, x)
		m.ApplyDownload(r, x, m.ExpandDownload(r, m.CompactUpload(r, c)))
		if m.WordGens()[0] == uint32(r+1) {
			thaws = append(thaws, r)
		}
	}
	// Longest thaw-free stretch [lo, hi] inside (rounds/2, rounds-3).
	lo, hi, prev := 0, -1, rounds/2
	for _, t := range append(thaws, rounds-3) {
		if t <= prev {
			continue
		}
		if t-1-(prev+1) > hi-lo {
			lo, hi = prev+1, t-1
		}
		prev = t
	}
	// The client misses rounds after+1 .. after+a; all must be quiet.
	a := churnAbsence
	if hi-a < lo-1 {
		return nil, fmt.Errorf("apf-q16-churn: %d rounds leave no quiet stretch of %d rounds in the second half", rounds, a)
	}
	after = lo - 1 + rng.Intn(hi-a-lo+2)
	return append(out, absence{after: after, gate: after + 1 + a}), nil
}

// oscillation is the oscillators' update in round r: zero in rounds 0
// and 1, then +step in even rounds and -step in odd ones.
func oscillation(r int) float64 {
	switch {
	case r < 2:
		return 0
	case r%2 == 0:
		return churnStep
	default:
		return -churnStep
	}
}

// churnStream is apf-q16-churn's synthetic update stream: a function of
// (seed, round, coordinate) only, so every client and every replay of a
// round produce the same model. Coordinates below oscStop oscillate with
// period two from round 2 on, so APF's stability check (every second
// round, baseline after round 0) sees no net motion and freezes them;
// the rest drift in one direction for driftHalf rounds at a time and
// stay unstable. A seeded set of switchers inside the oscillating range
// alternates between the two behaviours every switchPeriod rounds, so
// the steady state keeps changing a few scattered mask words.
type churnStream struct {
	oscStop   int
	switchers []int
	phase     []int // per-switcher phase offset in rounds
}

const (
	churnOscFrac   = 0.94
	churnSwitchers = 512
	churnStep      = 1.0 / 64
	driftHalf      = 16
	switchPeriod   = 24
)

func newChurnStream(seed int64, dim int) *churnStream {
	rng := stats.SplitRNG(seed, 7_000_001)
	s := &churnStream{oscStop: int(churnOscFrac * float64(dim))}
	for i := 0; i < churnSwitchers; i++ {
		s.switchers = append(s.switchers, rng.Intn(s.oscStop))
		s.phase = append(s.phase, rng.Intn(2*switchPeriod))
	}
	return s
}

// churnOptimizer applies churnStream's update for the client's current
// round in place of a gradient step (the model's gradients are ignored).
type churnOptimizer struct {
	params []*nn.Param
	stream *churnStream
	// round points at the round the client is training (last applied + 1).
	round *int
	flat  []float64
}

func (o *churnOptimizer) Step() {
	r := *o.round
	s := o.stream
	o.flat = nn.FlattenParams(o.params, o.flat)
	osc := oscillation(r)
	drift := churnStep
	if (r/driftHalf)%2 == 1 {
		drift = -churnStep
	}
	for j := 0; j < s.oscStop; j++ {
		o.flat[j] += osc
	}
	for j := s.oscStop; j < len(o.flat); j++ {
		o.flat[j] += drift
	}
	for i, j := range s.switchers {
		if ((r+s.phase[i])/switchPeriod)%2 == 1 {
			o.flat[j] += drift - osc
		}
	}
	nn.SetFlat(o.params, o.flat)
}

func (o *churnOptimizer) LR() float64   { return churnStep }
func (o *churnOptimizer) SetLR(float64) {}
