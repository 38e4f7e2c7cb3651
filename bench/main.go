// Command bench is the repository's single benchmark: six named workloads
// over the whole simulator, measured on two clocks. Virtual ("v_") metrics
// are what the modelled 1994 machine would take and repeat exactly for a
// seed; host metrics are what the simulator costs to run. It drives the
// program only through its public functions and checks the outputs it
// measures. See README.md in this directory.
//
//	go run ./bench                      # every workload, 5 repetitions + a traced run of each
//	go run ./bench -smoke               # tiny sizes, all checks (what go test runs)
//	go run ./bench -compare a.json b.json
//	go run ./bench --workload mail-open --seed 3 --seconds 5 --trace 0   # one driver run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print one JSON result line (driver mode)")
		seed     = flag.Int64("seed", inputSeed, "suite mode: seed of the arrival process, the mail stream, the cluster load and the tree specs; a driver run always uses 1")
		seconds  = flag.Int("seconds", runSeconds, "driver mode: repeat until the timed phases add up to this many seconds")
		trace    = flag.Int("trace", 0, "driver mode: 1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes: every workload and check in a few seconds, timings meaningless")
		compare  = flag.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
		mkManif  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "suite mode: directory for results.json and trace.json")
	)
	flag.Parse()

	switch {
	case *mkManif:
		os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(driverRun(os.Stdout, *workload, time.Duration(*seconds)*time.Second, *trace == 1, *smoke))
	default:
		os.Exit(suiteRun(*seed, *smoke, *outDir))
	}
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return smokeSizes
	}
	return fullSizes
}

// results is the schema of results.json.
type results struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Smoke     bool             `json:"smoke"`
	GoVersion string           `json:"go"`
	NumCPU    int              `json:"nproc"`
	Workloads []workloadResult `json:"workloads"`
}

const schemaName = "metaupdate-bench/1"

// suiteRun is the whole benchmark: sz.reps untraced repetitions of every
// workload, interleaved round-robin so a noisy minute does not land on one
// workload, then one traced repetition of each with the microbenchmarks.
func suiteRun(seed int64, smoke bool, outDir string) int {
	sz := sizesFor(smoke)
	untraced := make([][]*rep, len(workloads))
	for i := 0; i < sz.reps; i++ {
		for wi, w := range workloads {
			fmt.Printf("repetition %d/%d  %s\n", i+1, sz.reps, w.name)
			untraced[wi] = append(untraced[wi], runRep(w, sz, seed, nil))
		}
	}
	tr := newTracer()
	fmt.Println("microbenchmarks")
	micro := runMicro(tr, sz, smoke)
	out := results{Schema: schemaName, Seed: seed, Smoke: smoke, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	ok := true
	for wi, w := range workloads {
		fmt.Printf("traced run  %s\n", w.name)
		traced := runRep(w, sz, seed, tr)
		runExtras(w, sz, seed, tr, traced.host)
		res := summarize(w, untraced[wi], traced, micro)
		ok = ok && res.Correct
		out.Workloads = append(out.Workloads, res)
	}
	for i := range out.Workloads {
		out.Workloads[i].print(os.Stdout)
	}
	if err := writeOutputs(outDir, &out, tr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nwrote %s and %s\n", filepath.Join(outDir, "results.json"), filepath.Join(outDir, "trace.json"))
	if !ok {
		fmt.Println("FAILED: at least one output check failed")
		return 1
	}
	return 0
}

func writeOutputs(dir string, out *results, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(dir, "trace.json"))
}

// driverRun is one run of the builder's driver: a single workload on the
// fixed input, its metrics as the last line written to out.
func driverRun(out io.Writer, name string, measure time.Duration, traced, smoke bool) int {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	sz := sizesFor(smoke)
	var res workloadResult
	metrics := map[string]value{}
	if traced {
		// An untraced repetition first: it is what the traced one must
		// reproduce bit for bit, and it takes the cold start.
		tr := newTracer()
		micro := runMicro(tr, sz, smoke)
		reps := []*rep{runRep(*w, sz, inputSeed, nil)}
		t := runRep(*w, sz, inputSeed, tr)
		runExtras(*w, sz, inputSeed, tr, t.host)
		res = summarize(*w, reps, t, micro)
		metrics = res.PerLayer
	} else {
		// Repeat until enough has been measured: as sized, one repetition
		// (5 s or more of timed phases) on the reference box.
		var reps []*rep
		var timed float64
		for len(reps) == 0 || (timed < measure.Seconds() && !smoke) {
			r := runRep(*w, sz, inputSeed, nil)
			reps = append(reps, r)
			timed += r.wallS
		}
		res = summarize(*w, reps, nil, nil)
		res.standIn = reps[0].standIn
		// The contract wants every end-to-end name on every workload:
		// the defined metrics, and a stand-in under each of the others.
		for _, d := range endToEnd() {
			if s, ok := res.EndToEnd[d.Name]; ok {
				metrics[d.Name] = value{d.Unit, s.Median}
			} else {
				metrics[d.Name] = value{d.Unit, res.standIn[d.Name]}
			}
		}
	}
	res.print(out)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.OpsAttempted, res.OpsFailed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// watchdogExit reports a cell, probe or microbenchmark that outlived its
// host-time deadline. The engine goroutine is still spinning and cannot be
// stopped, so the only honest outcome is a reported failure and a non-zero
// exit.
func watchdogExit(name string, deadline time.Duration) {
	fmt.Fprintf(os.Stderr, "bench: FAILED: %s did not finish within %v (livelocked engine?); its operations never completed\n",
		name, deadline)
	os.Exit(3)
}
