package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/models"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/wire"
)

// shortRounds keeps each workload's cluster small enough for a test while
// still exercising its mechanism (apf-q16-churn needs both absences).
var shortRounds = map[string]int{
	"lenet-apf":       12,
	"dense-1m":        4,
	"apf-q16-churn":   30,
	"lenet-apf-relay": 8,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runShort runs one short single-cluster run and returns its stdout.
func runShort(t *testing.T, workload string, trace bool) string {
	t.Helper()
	var out, errOut bytes.Buffer
	o := &options{workload: workload, seed: 3, trace: trace, rounds: shortRounds[workload], minClusters: 1, out: t.TempDir()}
	if code := execute(o, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, code, out.String(), errOut.String())
	}
	return out.String()
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

// TestShortRunsEmitEveryMetric runs every workload in short traced mode:
// the report names every end-to-end and per-layer metric with its unit
// (or n/a), and the JSON line carries every contract per-layer metric
// with its unit.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := runShort(t, w.name, true)
			reported := func(name, unit string) {
				if !metricName.MatchString(name) {
					t.Errorf("bad metric name %q", name)
				}
				re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` +(n/a|\S+ ` + regexp.QuoteMeta(unit) + `)$`)
				if !re.MatchString(out) {
					t.Errorf("report lacks %s [%s]", name, unit)
				}
			}
			for _, e := range e2eMetrics {
				reported(e.name, e.unit)
			}
			r := lastLine(t, out)
			n := 0
			for _, l := range perLayerMetrics {
				reported(l.name, l.unit)
				if !l.contract {
					continue
				}
				n++
				if m, ok := r.Metrics[l.name]; !ok || m.Unit != l.unit {
					t.Errorf("JSON lacks %s [%s]", l.name, l.unit)
				}
			}
			if len(r.Metrics) != n {
				t.Errorf("JSON carries %d metrics, want %d per-layer", len(r.Metrics), n)
			}
			if w.contract && (!r.Correct || r.Failed != 0) {
				t.Errorf("contract workload failed its checks: %+v", r)
			}
			if !w.contract {
				if !strings.Contains(out, "root_error: ") {
					t.Errorf("the relay workload's root error is not reported")
				}
				// Its clusters never finish, so its timings are undefined.
				for _, name := range []string{"rounds_per_s", "round_ms_p50", "round_ms_p95", "cpu_ms_per_round"} {
					if !regexp.MustCompile(`(?m)^  ` + name + ` +n/a$`).MatchString(out) {
						t.Errorf("the relay workload reports %s", name)
					}
				}
			}
		})
	}
}

// TestUntracedRunEmitsContractMetrics checks the untraced JSON line: every
// contract end-to-end metric, numeric.
func TestUntracedRunEmitsContractMetrics(t *testing.T) {
	r := lastLine(t, runShort(t, "dense-1m", false))
	n := 0
	for _, e := range e2eMetrics {
		if !e.contract {
			continue
		}
		n++
		m, ok := r.Metrics[e.name]
		if !ok || m.Unit != e.unit || m.Value == nil || *m.Value <= 0 {
			t.Errorf("%s: got %+v", e.name, m)
		}
	}
	if len(r.Metrics) != n || !r.Correct || r.Attempted == 0 {
		t.Errorf("result %+v", r)
	}
}

// TestSameSeedSameOutputs: two runs of one seed agree exactly on every
// output that does not measure time.
func TestSameSeedSameOutputs(t *testing.T) {
	for _, name := range []string{"lenet-apf", "apf-q16-churn"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var reps []*runReport
		for i := 0; i < 2; i++ {
			o := &options{workload: name, seed: 11, rounds: shortRounds[name], minClusters: 1, out: t.TempDir()}
			rep, err := measure(w, o, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || len(rep.Checksums) != 1 {
				t.Fatalf("%s: run %d: %+v", name, i, rep)
			}
			reps = append(reps, rep)
		}
		a, b := reps[0], reps[1]
		if a.Checksums[0] != b.Checksums[0] {
			t.Errorf("%s: checksums %s vs %s", name, a.Checksums[0], b.Checksums[0])
		}
		if *a.EndToEnd["wire_kb_per_round"] != *b.EndToEnd["wire_kb_per_round"] {
			t.Errorf("%s: wire_kb_per_round %v vs %v", name, *a.EndToEnd["wire_kb_per_round"], *b.EndToEnd["wire_kb_per_round"])
		}
		for _, m := range []string{"replay", "sketch", "snapshot"} {
			if a.Modes[m] != b.Modes[m] {
				t.Errorf("%s: %s rejoins %d vs %d", name, m, a.Modes[m], b.Modes[m])
			}
		}
		if name == "apf-q16-churn" && (a.Modes["sketch"] != 1 || a.Modes["snapshot"] != 1 || a.Modes["replay"] != 0) {
			t.Errorf("apf-q16-churn rejoin modes %v, want one sketch and one snapshot", a.Modes)
		}
		// Round gaps leave out round 0 and, on churn, the two gate rounds
		// client 1 idles through.
		idled := map[string]int{"lenet-apf": 0, "apf-q16-churn": 2}[name]
		if a.Gaps != shortRounds[name]-1-idled {
			t.Errorf("%s: %d round gaps, want %d", name, a.Gaps, shortRounds[name]-1-idled)
		}
	}
}

// finalCapture records a simulated client's model after the last round.
type finalCapture struct {
	*core.Manager
	last  int
	final []float64
}

func (c *finalCapture) ApplyDownload(round int, x, global []float64) int64 {
	b := c.Manager.ApplyDownload(round, x, global)
	if round == c.last {
		c.final = append([]float64(nil), x...)
	}
	return b
}

// TestLenetMatchesSimulator is the simulator ≡ TCP oracle: a short
// lenet-apf cluster ends with the same model, bit for bit, as the
// in-process fl.Engine run of the same seed.
func TestLenetMatchesSimulator(t *testing.T) {
	const seed, rounds = 5, 12
	w, err := findWorkload("lenet-apf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCluster(w, seed, rounds, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatal(res.why)
	}

	ls, err := newLenetSetup(seed)
	if err != nil {
		t.Fatal(err)
	}
	var sims []*finalCapture
	factory := func(_, dim int) fl.SyncManager {
		cfg := apfConfig(seed)
		cfg.Dim = dim
		c := &finalCapture{Manager: core.NewManager(cfg), last: rounds - 1}
		sims = append(sims, c)
		return c
	}
	model := func(rng *rand.Rand) *nn.Network { return nn.NewNetwork(lenetLayers(rng)...) }
	fl.New(fl.Config{Rounds: rounds, LocalIters: lenetIters, BatchSize: ls.preset.Batch, Seed: seed},
		model, ls.preset.Optimizer, factory, ls.preset.Data, ls.parts, nil).Run()
	for i, s := range sims {
		if got := checksum(s.final); got != res.checksum {
			t.Errorf("simulated client %d ends at %016x, TCP clients at %016x", i, got, res.checksum)
		}
	}
}

// TestLenetLayersMirrorPreset pins lenetLayers to models.LeNet5: same
// parameters from the same stream, same outputs.
func TestLenetLayersMirrorPreset(t *testing.T) {
	want := models.LeNet5(stats.SplitRNG(9, 0), 1, 16, 10)
	got := nn.NewNetwork(lenetLayers(stats.SplitRNG(9, 0))...)
	if firstDiff(nn.FlattenParams(got.Params(), nil), nn.FlattenParams(want.Params(), nil)) >= 0 {
		t.Fatal("parameters differ")
	}
	ls, err := newLenetSetup(9)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ls.test.Gather([]int{0, 1, 2})
	if firstDiff(got.Forward(x, false).Data, want.Forward(x, false).Data) >= 0 {
		t.Fatal("outputs differ")
	}
}

// TestParse: the contract's arguments set the four options and leave the
// rest at their defaults; a bad -trace is refused.
func TestParse(t *testing.T) {
	o, err := parse([]string{"--workload", "dense-1m", "--seed", "7", "--seconds", "12", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := options{workload: "dense-1m", seed: 7, seconds: 12, trace: true,
		minClusters: minClusters, minGaps: minGaps, out: filepath.Join(".bench_build", "perfbench")}
	if *o != want {
		t.Errorf("got %+v, want %+v", *o, want)
	}
	if _, err := parse([]string{"--workload", "dense-1m", "--trace", "2"}, io.Discard); err == nil {
		t.Error("-trace 2 accepted")
	}
}

// TestFrameScanner follows frame boundaries across arbitrary read splits.
func TestFrameScanner(t *testing.T) {
	var stream []byte
	stream = append(stream, wire.Encode(&wire.GlobalMsg{Round: 3, Payload: []float64{1, 2, 3}})...)
	stream = append(stream, wire.Encode(&wire.SnapshotMsg{Round: 4, Payload: []float64{5}})...)
	for chunk := 1; chunk <= len(stream); chunk++ {
		var f frameScanner
		for i := 0; i < len(stream); i += chunk {
			f.feed(stream[i:min(i+chunk, len(stream))])
		}
		if !f.seen[wire.KindGlobal] || !f.seen[wire.KindSnapshot] || f.seen[wire.KindDelta] {
			t.Fatalf("chunk %d: kinds seen wrong", chunk)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bm); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range workloads {
		if w.contract {
			ws = append(ws, w.name+": "+w.why)
		}
	}
	var got []string
	for _, w := range bm.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if strings.Join(got, "\n") != strings.Join(ws, "\n") {
		t.Errorf("workloads:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(ws, "\n"))
	}
	var e2e, gotE2E []string
	for _, e := range e2eMetrics {
		if e.contract {
			e2e = append(e2e, e.name+" "+e.unit)
		}
	}
	for _, e := range bm.EndToEnd {
		gotE2E = append(gotE2E, e.Name+" "+e.Unit)
	}
	if strings.Join(gotE2E, ",") != strings.Join(e2e, ",") {
		t.Errorf("end_to_end %v, want %v", gotE2E, e2e)
	}
	var pl, gotPL []string
	for _, l := range perLayerMetrics {
		if l.contract {
			pl = append(pl, l.name+" "+l.unit)
		}
	}
	for _, l := range bm.PerLayer {
		gotPL = append(gotPL, l.Name+" "+l.Unit)
	}
	if strings.Join(gotPL, ",") != strings.Join(pl, ",") {
		t.Errorf("per_layer %v, want %v", gotPL, pl)
	}
}
