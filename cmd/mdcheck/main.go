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
// clean sweep under noorder or with -seed-bug planted — and 2 on a usage
// error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// singleOnly names the flags that configure the single-machine workload;
// -dist checks dmeta's own load, so setting one of them with it is a usage
// error rather than a silently ignored request.
var singleOnly = map[string]bool{"files": true, "seed-bug": true}

// run is the whole command: 0 when every verdict is the expected one, 1
// when one is not (or a scheme cannot be checked), 2 on a usage error
// (reported in one line, before anything simulates).
func run(args []string, stdout, stderr io.Writer) int {
	var all []string
	for _, s := range fsim.Schemes {
		all = append(all, s.Slug())
	}
	fs := flag.NewFlagSet("mdcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemes := fs.String("schemes", strings.Join(all, ","),
		"comma-separated ordering schemes to check ("+fsim.SchemeUsage+")")
	files := fs.Int("files", 150, "files created and removed (1 KB each)")
	workers := fs.Int("workers", 0, "fsck worker goroutines (0: GOMAXPROCS)")
	budget := fs.Int("budget", 20000, "max crash states generated per scheme")
	perInstant := fs.Int("per-instant", 1024, "max crash states per crash instant")
	shrink := fs.Bool("shrink", false, "shrink the first violation to a minimal repro")
	seedBug := fs.Bool("seed-bug", false,
		"plant an ordering bug (soft updates drops its directory-entry dependency)")
	dist := fs.Bool("dist", false,
		"check a power-failed sharded dmeta cluster instead of one file system")
	distNodes := fs.Int("dist-nodes", 4, "cluster shard count for -dist")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "mdcheck: "+format+"\n", a...)
		return code
	}

	var list []fsim.Scheme
	for _, name := range strings.Split(*schemes, ",") {
		s, err := fsim.ParseScheme(name)
		if err != nil {
			return fail(2, "%v", err)
		}
		list = append(list, s)
	}
	if *dist {
		var misused string
		fs.Visit(func(f *flag.Flag) {
			if singleOnly[f.Name] && misused == "" {
				misused = f.Name
			}
		})
		if misused != "" {
			return fail(2, "-%s configures the single-machine workload and cannot be combined with -dist (see -h)", misused)
		}
	}

	mc := crashmc.Config{
		Workers:    *workers,
		Budget:     *budget,
		PerInstant: *perInstant,
		Shrink:     *shrink,
	}
	var out io.Writer // nil with -json: the tables are not rendered
	if !*jsonOut {
		out = stdout
	}
	if *dist {
		return runDist(list, mc, *distNodes, out, stdout, stderr)
	}

	rows := harness.CrashCheckMatrix(list, harness.CrashCheckOptions{
		Files:   *files,
		SeedBug: *seedBug,
		MC:      mc,
	}, out)
	bad := false
	type row struct {
		Scheme string          `json:"scheme"`
		Error  string          `json:"error,omitempty"`
		Result *crashmc.Result `json:"result,omitempty"`
	}
	var doc []row
	for _, r := range rows {
		jr := row{Scheme: r.Scheme.String(), Result: r.Result}
		if r.Err != nil {
			fmt.Fprintf(stderr, "mdcheck: %s: %v\n", r.Scheme, r.Err)
			jr.Error = r.Err.Error()
		}
		doc = append(doc, jr)
		if !r.AsExpected() {
			bad = true
		}
		if r.Err != nil || out == nil {
			continue
		}
		for i, v := range r.Result.Violations {
			if i >= 3 {
				fmt.Fprintf(out, "  ... %d more retained violations\n", len(r.Result.Violations)-i)
				break
			}
			fmt.Fprintf(out, "  [%s] violation seq=%d instant=%d completed=%d applied=%d partial=%v\n",
				r.Scheme, v.Seq, v.Instant, v.Completed, len(v.Applied), v.Partial != nil)
			for _, f := range v.Findings {
				fmt.Fprintf(out, "      %s\n", f)
			}
		}
		if r.Result.Repro != nil {
			fmt.Fprintf(out, "  [%s] %s\n", r.Scheme, r.Result.Repro)
		}
	}
	return verdict(doc, *jsonOut, bad, stdout, stderr)
}

// runDist checks a power-failed dmeta cluster per scheme: every shard's
// recorded timeline is explored with fsck plus the naming-discipline
// oracle, and the crash-cut images get a cross-node reference scan. The
// verdict rule matches the single-machine matrix — ordering schemes must
// come up clean, noorder must not.
func runDist(list []fsim.Scheme, mc crashmc.Config, nodes int, out, stdout, stderr io.Writer) int {
	type row struct {
		Scheme string                        `json:"scheme"`
		Error  string                        `json:"error,omitempty"`
		Result *harness.DistCrashCheckResult `json:"result,omitempty"`
	}
	var doc []row
	bad := false
	for _, s := range list {
		res, err := harness.DistCrashCheck(harness.DistCrashCheckOptions{Scheme: s, Nodes: nodes, MC: mc})
		jr := row{Scheme: s.String(), Result: res}
		if err != nil {
			fmt.Fprintf(stderr, "mdcheck: %s: %v\n", s, err)
			jr.Error = err.Error()
			bad = true
		} else {
			if res.Clean() != (s != fsim.NoOrder) {
				bad = true
			}
			if out != nil {
				fmt.Fprintf(out, "== %s cluster (%d nodes) ==\n", s, nodes)
				res.Fprint(out)
			}
		}
		doc = append(doc, jr)
	}
	return verdict(doc, out == nil, bad, stdout, stderr)
}

// verdict writes doc as indented JSON when asked and maps the outcome to
// the exit status.
func verdict(doc any, jsonOut, bad bool, stdout, stderr io.Writer) int {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "mdcheck:", err)
			return 2
		}
	}
	if bad {
		return 1
	}
	return 0
}
