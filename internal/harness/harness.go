// Package harness reproduces every table and figure of the paper's
// evaluation (section 5 plus the section 3 comparisons): it builds the
// simulated systems, runs the workloads, and prints the same rows and
// series the paper reports. Absolute numbers come from a simulator, not
// the authors' NCR 3433 testbed — the reproduction targets the shape:
// which scheme wins, by roughly what factor, and where the crossovers are.
package harness

import (
	"fmt"
	"io"
	"strings"

	"metaupdate/internal/dev"

	"metaupdate/fsim"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// Table is a printable experiment result. Figures additionally carry an
// ASCII chart rendering of the same data. The data fields serialize for
// mdsim -json; the chart is a text-rendering concern and is omitted.
type Table struct {
	Title   string            `json:"title"`
	Note    string            `json:"note,omitempty"`
	Columns []string          `json:"columns"`
	Rows    [][]string        `json:"rows"`
	Chart   func(w io.Writer) `json:"-"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Chart != nil {
		t.Chart(w)
	}
}

// Scale shrinks the workloads for faster runs: 1.0 is the paper-sized
// experiment, 0.25 a quick check. It scales file counts, not file sizes.
type Scale float64

func (s Scale) files(n int) int {
	v := int(float64(n) * float64(s))
	if v < 1 {
		v = 1
	}
	return v
}

// Config carries harness-wide settings.
type Config struct {
	Scale Scale
	// Runner executes the experiment cells. Nil means each exhibit gets a
	// private GOMAXPROCS-wide runner; share one Runner across exhibits to
	// let common cells simulate once per process (mdsim does).
	Runner *Runner
}

// variant names one system configuration under test.
type variant struct {
	name string
	opt  fsim.Options
}

// fiveSchemes returns the paper's five comparison systems (section 5
// configuration: Part-NR/CB for the scheduler schemes).
func fiveSchemes() []variant {
	var out []variant
	for _, s := range fsim.Schemes {
		out = append(out, variant{s.String(), fsim.Options{Scheme: s}})
	}
	return out
}

func secs(d sim.Duration) string  { return fmt.Sprintf("%.1f", d.Seconds()) }
func secs2(d sim.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
func pct(d, base sim.Duration) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(d)/float64(base))
}

func mean(ds []sim.Duration) sim.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / sim.Duration(len(ds))
}

// mustSystem builds a system or panics (harness-internal).
func mustSystem(opt fsim.Options) *fsim.System {
	sys, err := fsim.New(opt)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return sys
}

// prepTrees builds one source tree per user, syncs, and empties the cache
// so the copy benchmark starts cold (the paper reboots between runs).
func prepTrees(sys *fsim.System, users int, scale Scale) workload.TreeSpec {
	ts := workload.PaperTree()
	ts.Files = scale.files(ts.Files)
	ts.TotalBytes = int64(float64(ts.TotalBytes) * float64(scale))
	if ts.TotalBytes < int64(ts.Files)*256 {
		ts.TotalBytes = int64(ts.Files) * 256
	}
	sys.Run(func(p *fsim.Proc) {
		for u := 0; u < users; u++ {
			spec := ts
			spec.Seed += int64(u) // distinct but deterministic trees
			if _, err := spec.Build(p, sys.FS, fsim.RootIno, fmt.Sprintf("src%d", u)); err != nil {
				panic(err)
			}
		}
		sys.FS.Sync(p)
	})
	sys.Cache.DropClean()
	return ts
}

// copyStats holds one copy/remove benchmark measurement.
type copyStats struct {
	elapsed sim.Duration // mean per-user elapsed
	stats   fsim.Stats
}

// runCopy executes the N-user copy benchmark on a prepared system. The
// elapsed time is the mean per-user time; the disk statistics are
// "system-wide" as in the paper, so the measurement window extends through
// the settle-flush of the delayed writes the benchmark left behind.
func runCopy(sys *fsim.System, users int) copyStats {
	sys.ResetStats()
	each, _ := sys.RunUsers(users, func(p *fsim.Proc, u int) {
		if err := workload.CopyTree(p, sys.FS, fsim.RootIno,
			fmt.Sprintf("src%d", u), fsim.RootIno, fmt.Sprintf("dst%d", u)); err != nil {
			panic(err)
		}
	})
	elapsed := mean(each)
	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	return copyStats{elapsed: elapsed, stats: sys.CollectStats()}
}

// runRemove executes the N-user remove benchmark: each user deletes one
// newly copied tree. Statistics include the settle-flush, like runCopy.
func runRemove(sys *fsim.System, users int) copyStats {
	sys.ResetStats()
	each, _ := sys.RunUsers(users, func(p *fsim.Proc, u int) {
		if err := workload.RemoveTree(p, sys.FS, fsim.RootIno, fmt.Sprintf("dst%d", u)); err != nil {
			panic(err)
		}
	})
	elapsed := mean(each)
	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	return copyStats{elapsed: elapsed, stats: sys.CollectStats()}
}

// copyBench prepares trees, runs the copy, and (optionally) the remove, on
// a fresh system per call.
func copyBench(opt fsim.Options, users int, scale Scale, alsoRemove bool) (cp, rm copyStats) {
	sys := mustSystem(opt)
	defer sys.Shutdown()
	prepTrees(sys, users, scale)
	cp = runCopy(sys, users)
	if alsoRemove {
		// Settle background work between phases, as consecutive benchmark
		// runs would.
		sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
		rm = runRemove(sys, users)
	}
	return cp, rm
}

// TraceCopy runs the N-user copy benchmark and returns the raw per-request
// trace plus the mean per-user elapsed time (the mdsim -trace mode).
func TraceCopy(opt fsim.Options, users int, scale Scale) ([]dev.Stat, sim.Duration) {
	sys := mustSystem(opt)
	defer sys.Shutdown()
	prepTrees(sys, users, scale)
	cp := runCopy(sys, users)
	return sys.Driver.Trace.Stats, cp.elapsed
}
