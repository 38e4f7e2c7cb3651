// Command mdsim regenerates the paper's tables and figures.
//
// Usage:
//
//	mdsim -list
//	mdsim -exp table1
//	mdsim -exp fig5 -scale 0.25
//	mdsim -exp all -j 8
//	mdsim -exp all -scale 0.1 -json results.json
//
// Each experiment declares its simulation cells (one self-contained
// deterministic system + workload per cell); a shared runner executes them
// on a -j-wide worker pool and memoizes results by fingerprint, so cells
// common to several exhibits simulate once per process. Tables go to
// stdout and are byte-identical for any -j and for cold or warm memos;
// timing and cache diagnostics go to stderr. -scale shrinks workload sizes
// for quicker runs; shapes are stable well below 1.0. -json additionally
// writes the machine-readable report (rows, per-cell wall-clock,
// memoization counters).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/harness"
	"metaupdate/internal/trace"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list), or 'all'")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-sized)")
	jobs := flag.Int("j", 0, "max simulation cells in flight (0: GOMAXPROCS)")
	jsonPath := flag.String("json", "", "also write a machine-readable report to this file")
	list := flag.Bool("list", false, "list available experiments")
	faults := flag.Bool("faults", false, "run the fault-injection recovery sweep (per-scheme crash recovery on a faulty disk)")
	opstats := flag.Bool("opstats", false, "run the per-scheme operation profile (virtual-time latency/stage breakdown per op type)")
	dist := flag.Bool("dist", false, "run the sharded metadata service sweep (per-scheme clusters at 1/4/16 nodes with dynamic splitting)")
	engineWorkers := flag.Int("engine-workers", 0, "with -dist/-scenario: run each cluster cell on this many parallel event-engine workers (0/1: serial; output is byte-identical at any count)")
	load := flag.Bool("load", false, "run the open-loop saturation study (per-scheme latency-vs-offered-load curves on the mail scenario)")
	scenarioName := flag.String("scenario", "", "run one open-loop scenario across schemes at -rate (mail|build|webcache)")
	rate := flag.Int("rate", 200, "with -scenario: offered load in ops per virtual second")
	scenarioNodes := flag.Int("scenario-nodes", 0, "with -scenario: also run the scenario against a metadata cluster of this many nodes (> 1)")
	opTrace := flag.String("optrace", "", "run the 4-user copy under -optrace-scheme and write a Chrome trace-event JSON of the operation spans to this file")
	opTraceScheme := flag.String("optrace-scheme", "softupdates", "scheme for -optrace ("+fsim.SchemeUsage+")")
	traceScheme := flag.String("trace", "", "run the 4-user copy under this scheme and print the I/O trace analysis ("+fsim.SchemeUsage+")")
	csvPath := flag.String("csv", "", "with -trace: also write the raw per-request trace as CSV to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "[wrote CPU profile to %s]\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
				return
			}
			defer f.Close()
			// The allocs profile carries cumulative allocation counts —
			// the numerator of the allocs/op figures in BENCH_2.json.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "[wrote allocation profile to %s]\n", path)
		}()
	}

	// -faults, -opstats and -dist are opt-in diagnostics and extensions, not
	// paper exhibits, so they live outside -exp/-list and the golden
	// transcript pinning `-exp all` is untouched. Cells run on the same
	// memoizing runner and every number is virtual-time, so stdout is
	// byte-identical for any -j (the fault sweep has one size: it ignores
	// -scale).
	for _, one := range []struct {
		on bool
		ex *harness.Exhibit
	}{{*faults, harness.FaultRecoveryExhibit}, {*opstats, harness.OpStatsExhibit}, {*dist, harness.DistExhibit}} {
		if !one.on {
			continue
		}
		runner := harness.NewRunner(*jobs)
		cfg := harness.DefaultConfig()
		cfg.Scale = harness.Scale(*scale)
		cfg.Runner = runner
		cfg.EngineWorkers = *engineWorkers
		for _, t := range one.ex.Tables(cfg) {
			t.Fprint(os.Stdout)
		}
		st := runner.Stats()
		fmt.Fprintf(os.Stderr, "[%s: %d cells simulated, %d memo hits, %d workers]\n",
			one.ex.Name, st.Executed, st.Hits, st.Workers)
		return
	}

	if *opTrace != "" {
		if err := runOpTrace(*opTraceScheme, harness.Scale(*scale), *opTrace); err != nil {
			fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *traceScheme != "" {
		if err := runTrace(*traceScheme, harness.Scale(*scale), *csvPath); err != nil {
			fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var exhibits []*harness.Exhibit
	switch {
	case *load || *scenarioName != "":
		// Like -faults/-opstats/-dist: opt-in studies outside -exp/-list,
		// so the golden transcript pinning `-exp all` is untouched. All
		// numbers are virtual-time, so stdout is byte-identical for any -j
		// and cold or warm memos; -json captures the same tables.
		if *load {
			exhibits = append(exhibits, harness.LoadCurveExhibit)
		}
		if *scenarioName != "" {
			exhibits = append(exhibits, harness.ScenarioExhibit(*scenarioName, *rate, *scenarioNodes))
		}
	case *list || *exp == "":
		fmt.Println("experiments:")
		for _, name := range harness.ExperimentNames {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("  all")
		if !*list {
			os.Exit(2)
		}
		return
	case *exp == "all":
		exhibits = harness.Exhibits
	default:
		ex := harness.ExhibitByName[*exp]
		if ex == nil {
			fmt.Fprintf(os.Stderr, "mdsim: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		exhibits = []*harness.Exhibit{ex}
	}

	runner := harness.NewRunner(*jobs)
	cfg := harness.DefaultConfig()
	cfg.Scale = harness.Scale(*scale)
	cfg.Runner = runner
	cfg.EngineWorkers = *engineWorkers
	report := harness.Report{Scale: *scale, Jobs: runner.Workers(), CPUs: runtime.NumCPU()}
	total := time.Now()
	for _, ex := range exhibits {
		start := time.Now()
		tables := ex.Tables(cfg)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		wall := time.Since(start)
		// Diagnostics go to stderr so stdout stays byte-identical across
		// -j values and cache states.
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs of real time]\n", ex.Name, wall.Seconds())
		report.Exhibits = append(report.Exhibits, harness.ExhibitReport{
			Name: ex.Name, WallSec: wall.Seconds(), Tables: tables,
		})
	}
	report.WallSec = time.Since(total).Seconds()
	report.Runner = runner.Stats()
	report.Cells = runner.CellTimings()
	st := report.Runner
	fmt.Fprintf(os.Stderr,
		"[runner: %d cells simulated, %d memo hits, %d workers, %.1fs cell time in %.1fs wall]\n",
		st.Executed, st.Hits, st.Workers, st.CellWall, report.WallSec)

	if *jsonPath != "" {
		if err := writeReport(report, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeReport writes the machine-readable report and logs the path.
func writeReport(report harness.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[wrote JSON report to %s]\n", path)
	return nil
}

// runOpTrace runs the 4-user copy with the operation-span recorder
// attached and writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). The file is byte-deterministic: all
// timestamps are virtual.
func runOpTrace(schemeName string, scale harness.Scale, path string) error {
	scheme, err := fsim.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans, elapsed, err := harness.OpTraceCopy(fsim.Options{Scheme: scheme}, 4, scale, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("4-user copy under %s: mean per-user elapsed %.1fs\n", scheme, elapsed.Seconds())
	fmt.Printf("wrote %d operation spans to %s\n", spans, path)
	return nil
}

// runTrace reproduces the paper's measurement methodology on demand: run
// the 4-user copy benchmark under one scheme with the driver instrumented,
// then analyze the per-request queue and service delays.
func runTrace(schemeName string, scale harness.Scale, csvPath string) error {
	scheme, err := fsim.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	stats, elapsed := harness.TraceCopy(fsim.Options{Scheme: scheme}, 4, scale)
	fmt.Printf("4-user copy under %s: mean per-user elapsed %.1fs\n\n", scheme, elapsed.Seconds())
	trace.Analyze(stats).Fprint(os.Stdout)
	fmt.Println()
	trace.ServiceHistogram(stats).Fprint(os.Stdout, "disk access time")
	fmt.Println()
	trace.ResponseHistogram(stats).Fprint(os.Stdout, "driver response time")
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, stats); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(stats), csvPath)
	}
	return nil
}
