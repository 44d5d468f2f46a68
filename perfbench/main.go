// Command perfbench is the repository's round-level benchmark. Each
// workload runs real transport servers, relays and clients over loopback
// in this one process, in a closed loop (a client pushes round r+1 only
// after it applied round r) with two client connections, and repeats the
// whole cluster — set-up included — until the measuring time is used up.
// It prints every end-to-end metric by name with its unit, checks that
// every client ends bit-identical, and finishes with one JSON line:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 1 it measures an untraced phase and then a traced one, in
// which wrappers around each layer's public functions record spans; the
// JSON line then carries the per-layer metrics, the unattributed share of
// the client round and the tracing overhead. Spans and the full report
// are written under .bench_build/perfbench.
//
// Usage (from the repository root, usually through perfbench/run.py):
//
//	perfbench -workload lenet-apf -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"apf/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// minClusters is the fewest clusters a phase runs.
	minClusters = 3
	// minGaps is the fewest round gaps the untraced phase times, so that
	// round_ms_p95 has ten samples beyond it.
	minGaps = 200
)

// options are the settings of one run. The command line sets the first
// four; the rest keep the defaults parse gives them, which tests shrink.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	rounds      int // rounds per cluster; 0 is the workload's own
	minClusters int
	minGaps     int
	out         string // reports, spans and durable state
}

func parse(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{minClusters: minClusters, minGaps: minGaps, out: filepath.Join(".bench_build", "perfbench")}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: data, model and fault schedule derive from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time per phase; clusters repeat until it is used up")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: also a traced phase, reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds < 0 {
		return nil, fmt.Errorf("-seconds must be ≥ 0, got %g", o.seconds)
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runReport is everything one run measured.
type runReport struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`

	Rounds    int            `json:"rounds_per_cluster"`
	Clusters  int            `json:"clusters"`
	Gaps      int            `json:"round_gaps"`
	BeyondP95 int            `json:"round_gaps_beyond_p95"`
	Checksums []string       `json:"checksums"`
	Modes     map[string]int `json:"catchup_modes,omitempty"`
	RootError string         `json:"root_error,omitempty"`
	Problems  []string       `json:"problems,omitempty"`

	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]*float64 `json:"end_to_end"`
	PerLayer  map[string]*float64 `json:"per_layer,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs the workload o names, writes the full report and prints
// the result; it returns the exit code.
func execute(o *options, stdout, stderr io.Writer) int {
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeReport(o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep)
	if !rep.Correct && w.contract {
		return 1
	}
	return 0
}

// measure runs the untraced phase, and the traced one when asked.
func measure(w *workload, o *options, stderr io.Writer) (*runReport, error) {
	rounds := o.rounds
	if rounds == 0 {
		rounds = w.rounds
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	bi := telemetry.ReadBuildInfo()
	rep := &runReport{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: bi.Revision, GoVersion: bi.GoVersion, CPU: cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Rounds: rounds, Correct: true,
	}
	if bi.Modified {
		rep.Commit += "+modified"
	}
	// A traced run splits its time between the untraced reference phase
	// and the traced phase.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	phaseRun := func(traced bool, minGaps int) (phase, error) {
		var p phase
		start := time.Now()
		for len(p) < o.minClusters || time.Since(start).Seconds() < seconds || len(p.gaps()) < minGaps {
			c, err := runCluster(w, o.seed, rounds, traced, o.out)
			if err != nil {
				return nil, err
			}
			p = append(p, c)
			rep.Attempted += c.attempted
			rep.Failed += c.failed
			if !c.correct {
				minGaps = 0 // a failing cluster yields no rounds to wait for
				rep.Correct = false
				rep.Problems = appendOnce(rep.Problems, c.why)
			}
			if c.rootErr != "" {
				rep.RootError = c.rootErr
			}
			if c.correct {
				rep.Checksums = appendOnce(rep.Checksums, fmt.Sprintf("%016x", c.checksum))
			}
		}
		return p, nil
	}
	// The untraced phase runs until round_ms_p95 has ten samples beyond
	// it, however slow the machine.
	untraced, err := phaseRun(false, o.minGaps)
	if err != nil {
		return nil, err
	}
	rep.Clusters = len(untraced)
	rep.Gaps = len(untraced.gaps())
	rep.BeyondP95 = tailBeyondP95(rep.Gaps)
	if rep.BeyondP95 < 10 {
		fmt.Fprintf(stderr, "perfbench: only %d round gaps beyond p95; measure longer for a trustworthy round_ms_p95\n", rep.BeyondP95)
	}
	if len(rep.Checksums) > 1 {
		// Every cluster of a run replays the same seed; a differing final
		// model means the trajectory depended on timing.
		rep.Correct = false
		rep.Problems = append(rep.Problems, "clusters of one seed ended with different final models")
	}
	if untraced[0].churn {
		rep.Modes = untraced.modeCounts()
	}
	rep.EndToEnd = nullable(untraced.e2e())
	if o.trace {
		traced, err := phaseRun(true, 0)
		if err != nil {
			return nil, err
		}
		rep.PerLayer = nullable(perLayer(traced, untraced))
		var trs []*tracer
		for _, c := range traced {
			trs = append(trs, c.tr)
		}
		if err := writeSpanFile(filepath.Join(o.out, fileStem(o)+".spans.csv"), trs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func appendOnce(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// nullable maps NaN (n/a) to nil for JSON.
func nullable(m map[string]float64) map[string]*float64 {
	out := make(map[string]*float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = &v
		} else {
			out[k] = nil
		}
	}
	return out
}

func fileStem(o *options) string {
	t := 0
	if o.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, t)
}

func writeReport(o *options, rep *runReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fileStem(o)+".json"), append(buf, '\n'), 0o644)
}

// printReport writes the human-readable report and, last, the JSON result
// line: the contract end-to-end metrics, or with tracing the per-layer
// metrics.
func printReport(w io.Writer, rep *runReport) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "  why: %s\n", rep.Why)
	fmt.Fprintf(w, "  provenance: commit=%s go=%s cpu=%q gomaxprocs=%d nproc=%d\n",
		rep.Commit, rep.GoVersion, rep.CPU, rep.GOMAXPROCS, rep.NProc)
	fmt.Fprintf(w, "  untraced: %d clusters × %d rounds, %d round gaps (%d beyond p95)\n",
		rep.Clusters, rep.Rounds, rep.Gaps, rep.BeyondP95)
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d checksum=%s\n",
		rep.Correct, rep.Attempted, rep.Failed, strings.Join(rep.Checksums, ","))
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if rep.RootError != "" {
		fmt.Fprintf(w, "  root_error: %s\n", rep.RootError)
	}
	if rep.Modes != nil {
		fmt.Fprintf(w, "  catch-up modes: replay=%d sketch=%d snapshot=%d\n",
			rep.Modes["replay"], rep.Modes["sketch"], rep.Modes["snapshot"])
	}
	fmt.Fprintln(w, "end-to-end (untraced):")
	for _, e := range e2eMetrics {
		fmt.Fprintf(w, "  %-30s %s\n", e.name, format(rep.EndToEnd[e.name], e.unit))
	}
	result := map[string]any{}
	if rep.PerLayer != nil {
		fmt.Fprintln(w, "per-layer (traced):")
		for _, l := range perLayerMetrics {
			fmt.Fprintf(w, "  %-30s %s\n", l.name, format(rep.PerLayer[l.name], l.unit))
			if l.contract {
				result[l.name] = map[string]any{"value": rep.PerLayer[l.name], "unit": l.unit}
			}
		}
	} else {
		for _, e := range e2eMetrics {
			if e.contract {
				result[e.name] = map[string]any{"value": rep.EndToEnd[e.name], "unit": e.unit}
			}
		}
	}
	// Marshal cannot fail: every value is a bool, an int, a string or a
	// finite float (nullable turned NaN into nil).
	line, _ := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": result,
	})
	fmt.Fprintln(w, string(line))
}

func format(v *float64, unit string) string {
	if v == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.6g %s", *v, unit)
}

// cpuModel reads the processor's model name ("unknown" if unavailable).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
