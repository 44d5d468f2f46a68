// Command apfbench regenerates the paper's tables and figures.
//
// Usage:
//
//	apfbench -list
//	apfbench -exp fig11                 # quick scale (seconds)
//	apfbench -exp table2 -scale full    # paper-like scale (hours on CPU)
//	apfbench -exp all -seed 7
//	apfbench -hotpath BENCH_hotpath.json  # hot-path perf report
//	apfbench -wire BENCH_wire.json        # wire broadcast and sparse codec report
//	apfbench -telemetry BENCH_telemetry.json  # telemetry overhead report
//	apfbench -scenarios BENCH_scenarios.json  # adversary × network × data matrix
//	apfbench -scenarios smoke.json -matrix smoke  # CI smoke subset
//	apfbench -scaling BENCH_scale.json        # two-tier topology at 100k–1M clients
//	apfbench -resume BENCH_resume.json        # snapshot vs sketch catch-up cost
//
// Output is a textual report per experiment: markdown tables for the
// paper's tables and per-series digests (+ optional TSV dumps via -tsv)
// for its figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"apf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "apfbench:", err)
		os.Exit(1)
	}
}

// run parses flags and executes the selected experiments.
func run(args []string) error {
	fs := flag.NewFlagSet("apfbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scale   = fs.String("scale", "quick", "experiment scale: quick | full")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		tsv     = fs.String("tsv", "", "directory to dump figure series as TSV files")
		plot    = fs.Bool("plot", false, "render figures as terminal plots")
		hotpath = fs.String("hotpath", "", "measure the APF hot-path benchmarks and write the JSON report to this file")
		wirerep = fs.String("wire", "", "measure wire-format broadcast and sparse codec cost and write the JSON report to this file")
		telem   = fs.String("telemetry", "", "measure the telemetry observer's hot-path overhead and write the JSON report to this file")
		scen    = fs.String("scenarios", "", "run the adversary × network × data scenario matrix and write the JSON report to this file")
		scaling = fs.String("scaling", "", "simulate the two-tier topology at 100k and 1M clients and write the JSON scaling report to this file (fails unless root work stays flat)")
		resume  = fs.String("resume", "", "measure snapshot vs sketch catch-up cost for resuming clients and write the JSON report to this file (fails unless snapshot is flat in absence and sketch beats it)")
		matrix  = fs.String("matrix", "full", "scenario matrix: full | smoke (with -scenarios)")
		trials  = fs.Int("trials", 2, "trials per scenario cell (with -scenarios, full matrix only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *hotpath != "" {
		return runHotpath(*hotpath)
	}
	if *wirerep != "" {
		return runWirebench(*wirerep)
	}
	if *telem != "" {
		return runTelemetrybench(*telem)
	}
	if *scen != "" {
		return runScenarios(*scen, *matrix, *seed, *trials)
	}
	if *scaling != "" {
		return runScalebench(*scaling)
	}
	if *resume != "" {
		return runResumebench(*resume)
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("missing -exp (use -list to see the available ids)")
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		runner, ok := experiments.Get(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		out, err := runner(sc, *seed)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := out.Render(os.Stdout); err != nil {
			return err
		}
		if *plot {
			for _, fig := range out.Figures {
				if p := fig.ASCIIPlot(72, 14); p != "" {
					fmt.Println(p)
				}
			}
		}
		fmt.Printf("(%s at %s scale in %s)\n\n", id, sc, time.Since(start).Round(time.Millisecond))

		if *tsv != "" {
			if err := dumpTSV(*tsv, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// dumpTSV writes each figure of out as a TSV file under dir.
func dumpTSV(dir string, out *experiments.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, fig := range out.Figures {
		name := fmt.Sprintf("%s_%d.tsv", out.ID, i)
		name = strings.ReplaceAll(name, " ", "_")
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fig.WriteTSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
