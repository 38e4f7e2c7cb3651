// Command mdsim regenerates the paper's tables and figures, and the
// post-paper extension studies, from one exhibit registry.
//
// Usage:
//
//	mdsim -list
//	mdsim -exp table1
//	mdsim -exp fig5 -scale 0.25
//	mdsim -exp all -j 8
//	mdsim -exp all -scale 0.1 -json results.json
//	mdsim -exp load -scale 0.05
//	mdsim -exp scenario-mail -rate 100 -scenario-nodes 2
//
// Each experiment declares its simulation cells (one self-contained
// deterministic system + workload per cell); a shared runner executes them
// on a -j-wide worker pool and memoizes results by fingerprint, so cells
// common to several exhibits simulate once per process. Tables go to
// stdout and are byte-identical for any -j and for cold or warm memos;
// timing and cache diagnostics go to stderr. -scale shrinks workload sizes
// for quicker runs; shapes are stable well below 1.0. -json additionally
// writes the machine-readable report (rows, per-cell wall-clock,
// memoization counters). `all` is the paper's set, the one the golden
// transcript pins; the extensions -list names after it run by name only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/dev"
	"metaupdate/internal/harness"
	"metaupdate/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when a run fails, 2 on a
// usage error (reported in one line, before any cell simulates).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run (see -list), or 'all' for the paper's set")
	scale := fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper-sized)")
	jobs := fs.Int("j", 0, "max simulation cells in flight (0: GOMAXPROCS)")
	jsonPath := fs.String("json", "", "also write a machine-readable report to this file")
	list := fs.Bool("list", false, "list available experiments")
	rate := fs.Int("rate", 200, "with -exp scenario-*: offered load in ops per virtual second")
	scenarioNodes := fs.Int("scenario-nodes", 0, "with -exp scenario-*: also run the scenario against a metadata cluster of this many nodes (> 1)")
	opTrace := fs.String("optrace", "", "run the 4-user copy under -optrace-scheme and write a Chrome trace-event JSON of the operation spans to this file")
	opTraceScheme := fs.String("optrace-scheme", "softupdates", "scheme for -optrace ("+fsim.SchemeUsage+")")
	traceScheme := fs.String("trace", "", "run the 4-user copy under this scheme and print the I/O trace analysis ("+fsim.SchemeUsage+")")
	csvPath := fs.String("csv", "", "with -trace: also write the raw per-request trace as CSV to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "mdsim: "+format+"\n", a...)
		return code
	}
	if *rate < 1 {
		return fail(2, "-rate %d: the offered load must be at least 1 op per virtual second (see -h)", *rate)
	}
	if *scenarioNodes < 0 {
		return fail(2, "-scenario-nodes %d: the cluster size cannot be negative (see -h)", *scenarioNodes)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, "%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "[wrote CPU profile to %s]\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(1, "%v", err)
				return
			}
			defer f.Close()
			// The allocs profile carries cumulative allocation counts and
			// bytes since process start (what bench's host_alloc_mb sums),
			// not the live heap.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(1, "%v", err)
				return
			}
			fmt.Fprintf(stderr, "[wrote allocation profile to %s]\n", *memProfile)
		}()
	}

	if *opTrace != "" {
		if err := runOpTrace(stdout, *opTraceScheme, harness.Scale(*scale), *opTrace); err != nil {
			return fail(1, "%v", err)
		}
		return 0
	}
	if *traceScheme != "" {
		if err := runTrace(stdout, *traceScheme, harness.Scale(*scale), *csvPath); err != nil {
			return fail(1, "%v", err)
		}
		return 0
	}

	registry := harness.Registry(*rate, *scenarioNodes)
	var exhibits []*harness.Exhibit
	switch {
	case *list || *exp == "":
		fmt.Fprintln(stdout, "experiments:")
		for i, ex := range registry {
			if i == len(harness.Paper) {
				fmt.Fprintln(stdout, "  all")
				fmt.Fprintln(stdout, "extensions (by name only; not part of all):")
			}
			fmt.Fprintf(stdout, "  %s\n", ex.Name)
		}
		if !*list {
			return 2
		}
		return 0
	case *exp == "all":
		exhibits = harness.Paper
	default:
		for _, ex := range registry {
			if ex.Name == *exp {
				exhibits = []*harness.Exhibit{ex}
			}
		}
		if exhibits == nil {
			return fail(2, "unknown experiment %q (try -list)", *exp)
		}
	}

	// The one run loop: every exhibit, paper or extension, resolves its
	// cells on the shared memoizing runner. All table content is
	// virtual-time, so stdout is byte-identical for any -j (the fault sweep
	// has one size: it ignores -scale).
	runner := harness.NewRunner(*jobs)
	cfg := harness.Config{Scale: harness.Scale(*scale), Runner: runner}
	report := harness.Report{Scale: *scale, Jobs: runner.Workers(), CPUs: runtime.NumCPU()}
	total := time.Now()
	for _, ex := range exhibits {
		start := time.Now()
		tables := ex.Tables(cfg)
		for _, t := range tables {
			t.Fprint(stdout)
		}
		wall := time.Since(start)
		// Diagnostics go to stderr so stdout stays byte-identical across
		// -j values and cache states.
		fmt.Fprintf(stderr, "[%s completed in %.1fs of real time]\n", ex.Name, wall.Seconds())
		report.Exhibits = append(report.Exhibits, harness.ExhibitReport{
			Name: ex.Name, WallSec: wall.Seconds(), Tables: tables,
		})
	}
	report.WallSec = time.Since(total).Seconds()
	report.Runner = runner.Stats()
	report.Cells = runner.CellTimings()
	st := report.Runner
	fmt.Fprintf(stderr,
		"[runner: %d cells simulated, %d memo hits, %d workers, %.1fs cell time in %.1fs wall]\n",
		st.Executed, st.Hits, st.Workers, st.CellWall, report.WallSec)

	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stderr, "[wrote JSON report to %s]\n", *jsonPath)
	}
	return 0
}

// runOpTrace runs the 4-user copy with the operation-span recorder
// attached and writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). The file is byte-deterministic: all
// timestamps are virtual.
func runOpTrace(stdout io.Writer, schemeName string, scale harness.Scale, path string) error {
	scheme, err := fsim.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var spans int
	elapsed := harness.TraceCopy(fsim.Options{Scheme: scheme, Observe: true}, 4, scale, func(sys *fsim.System) {
		spans, err = len(sys.Obs.Spans()), sys.Obs.WriteChromeTrace(f)
	})
	if err := errors.Join(err, f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "4-user copy under %s: mean per-user elapsed %.1fs\n", scheme, elapsed.Seconds())
	fmt.Fprintf(stdout, "wrote %d operation spans to %s\n", spans, path)
	return nil
}

// runTrace reproduces the paper's measurement methodology on demand: run
// the 4-user copy benchmark under one scheme with the driver instrumented,
// then analyze the per-request queue and service delays.
func runTrace(stdout io.Writer, schemeName string, scale harness.Scale, csvPath string) error {
	scheme, err := fsim.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	var stats []dev.Stat
	elapsed := harness.TraceCopy(fsim.Options{Scheme: scheme}, 4, scale,
		func(sys *fsim.System) { stats = sys.Driver.Trace.Stats })
	fmt.Fprintf(stdout, "4-user copy under %s: mean per-user elapsed %.1fs\n\n", scheme, elapsed.Seconds())
	trace.Analyze(stats).Fprint(stdout)
	fmt.Fprintln(stdout)
	trace.ServiceHistogram(stats).Fprint(stdout, "disk access time")
	fmt.Fprintln(stdout)
	trace.ResponseHistogram(stats).Fprint(stdout, "driver response time")
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, stats); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %d rows to %s\n", len(stats), csvPath)
	}
	return nil
}
