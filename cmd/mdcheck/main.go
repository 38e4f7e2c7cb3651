// Command mdcheck is the crash-state model checker: it records the 1 KB
// create/remove workload under each requested ordering scheme, enumerates
// the crash images the recorded write timeline could have left on the
// media (every crash instant, every legally-reorderable completed subset,
// every partial-sector prefix), and runs fsck over each distinct image on
// a parallel worker pool.
//
//	mdcheck                             # the paper's five schemes
//	mdcheck -schemes softupdates,noorder -files 200
//	mdcheck -workers 8 -budget 100000 -json
//	mdcheck -schemes softupdates -seed-bug -shrink   # catch a planted bug
//	mdcheck -dist -schemes conventional # sharded dmeta cluster, per-node sweeps
//
// Exit status is 1 when any scheme's verdict is unexpected — the table
// marks it "(UNEXPECTED)": a violation under an ordering scheme, or a fully
// clean sweep under noorder or with -seed-bug planted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/harness"
)

func main() {
	var all []string
	for _, s := range fsim.Schemes {
		all = append(all, s.Slug())
	}
	schemes := flag.String("schemes", strings.Join(all, ","),
		"comma-separated ordering schemes to check ("+fsim.SchemeUsage+")")
	files := flag.Int("files", 150, "files created and removed (1 KB each)")
	workers := flag.Int("workers", 0, "fsck worker goroutines (0: GOMAXPROCS)")
	budget := flag.Int("budget", 20000, "max crash states generated per scheme")
	perInstant := flag.Int("per-instant", 1024, "max crash states per crash instant")
	shrink := flag.Bool("shrink", false, "shrink the first violation to a minimal repro")
	seedBug := flag.Bool("seed-bug", false,
		"plant an ordering bug (soft updates drops its directory-entry dependency)")
	dist := flag.Bool("dist", false,
		"check a power-failed sharded dmeta cluster instead of one file system")
	distNodes := flag.Int("dist-nodes", 4, "cluster shard count for -dist")
	engineWorkers := flag.Int("engine-workers", 0, "with -dist: parallel event-engine workers building the crashed cluster (0/1: serial; images are byte-identical at any count)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	flag.Parse()

	var list []fsim.Scheme
	for _, name := range strings.Split(*schemes, ",") {
		s, err := fsim.ParseScheme(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdcheck:", err)
			os.Exit(2)
		}
		list = append(list, s)
	}

	mc := crashmc.Config{
		Workers:    *workers,
		Budget:     *budget,
		PerInstant: *perInstant,
		Shrink:     *shrink,
	}

	if *dist {
		os.Exit(runDist(list, mc, *distNodes, *engineWorkers, *jsonOut))
	}

	opt := harness.CrashCheckOptions{
		Files:   *files,
		SeedBug: *seedBug,
		MC:      mc,
	}

	var out *os.File
	if !*jsonOut {
		out = os.Stdout
	}
	rows := harness.CrashCheckMatrix(list, opt, out)

	bad := false
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "mdcheck: %s: %v\n", r.Scheme, r.Err)
			bad = true
			continue
		}
		if !r.AsExpected() {
			bad = true
		}
		if *jsonOut {
			continue
		}
		for i, v := range r.Result.Violations {
			if i >= 3 {
				fmt.Printf("  ... %d more retained violations\n", len(r.Result.Violations)-i)
				break
			}
			fmt.Printf("  [%s] violation seq=%d instant=%d completed=%d applied=%d partial=%v\n",
				r.Scheme, v.Seq, v.Instant, v.Completed, len(v.Applied), v.Partial != nil)
			for _, f := range v.Findings {
				fmt.Printf("      %s\n", f)
			}
		}
		if r.Result.Repro != nil {
			fmt.Printf("  [%s] %s\n", r.Scheme, r.Result.Repro)
		}
	}
	if *jsonOut {
		type row struct {
			Scheme string          `json:"scheme"`
			Error  string          `json:"error,omitempty"`
			Result *crashmc.Result `json:"result,omitempty"`
		}
		var doc []row
		for _, r := range rows {
			jr := row{Scheme: r.Scheme.String(), Result: r.Result}
			if r.Err != nil {
				jr.Error = r.Err.Error()
			}
			doc = append(doc, jr)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "mdcheck:", err)
			os.Exit(2)
		}
	}
	if bad {
		os.Exit(1)
	}
}

// runDist checks a power-failed dmeta cluster per scheme: every shard's
// recorded timeline is explored with fsck plus the naming-discipline
// oracle, and the crash-cut images get a cross-node reference scan. The
// verdict rule matches the single-machine matrix — ordering schemes must
// come up clean, noorder must not.
func runDist(list []fsim.Scheme, mc crashmc.Config, nodes, engineWorkers int, jsonOut bool) int {
	type row struct {
		Scheme string                        `json:"scheme"`
		Error  string                        `json:"error,omitempty"`
		Result *harness.DistCrashCheckResult `json:"result,omitempty"`
	}
	var doc []row
	bad := false
	for _, s := range list {
		res, err := harness.DistCrashCheck(harness.DistCrashCheckOptions{
			Scheme:        s,
			Nodes:         nodes,
			MC:            mc,
			EngineWorkers: engineWorkers,
		})
		jr := row{Scheme: s.String(), Result: res}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcheck: %s: %v\n", s, err)
			jr.Error = err.Error()
			bad = true
		} else {
			expectClean := s != fsim.NoOrder
			if res.Clean() != expectClean {
				bad = true
			}
			if !jsonOut {
				fmt.Printf("== %s cluster (%d nodes) ==\n", s, nodes)
				res.Fprint(os.Stdout)
			}
		}
		doc = append(doc, jr)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "mdcheck:", err)
			return 2
		}
	}
	if bad {
		return 1
	}
	return 0
}
