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

	"metaupdate/fsim"
	"metaupdate/internal/core"
	"metaupdate/internal/obs"
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

// copyStats is one measured phase of the copy benchmark (the copy or the
// remove): the mean per-user elapsed time, the system-wide statistics, the
// Soft Updates counters the phase added (zero under other schemes), and —
// with Options.Observe — the per-op digests of its operation spans.
type copyStats struct {
	elapsed sim.Duration // mean per-user elapsed
	stats   fsim.Stats
	soft    core.Stats
	ops     []obs.OpDigest
}

// runPhase runs one phase of the N-user copy benchmark on a prepared
// system: every user's work, timed per user. The measurement window — of
// the statistics and, when observed, of the span recorder — runs through
// the settle-flush of the delayed writes the phase left behind, so the disk
// statistics are "system-wide" as in the paper and the sync that flushes
// them is profiled too (as the "sync" op row).
func runPhase(sys *fsim.System, users int, work func(p *fsim.Proc, u int) error) copyStats {
	var su0 core.Stats
	if sys.Soft != nil {
		su0 = sys.Soft.Stat
	}
	sys.Obs.Reset()
	sys.ResetStats()
	each, _ := sys.RunUsers(users, func(p *fsim.Proc, u int) {
		if err := work(p, u); err != nil {
			panic(err)
		}
	})
	cs := copyStats{elapsed: mean(each)}
	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	cs.stats = sys.CollectStats()
	if sys.Soft != nil {
		su := sys.Soft.Stat
		cs.soft = core.Stats{
			Rollbacks:     su.Rollbacks - su0.Rollbacks,
			CancelledAdds: su.CancelledAdds - su0.CancelledAdds,
			Workitems:     su.Workitems - su0.Workitems,
		}
	}
	cs.ops = sys.Obs.Profile()
	return cs
}

// copyBench prepares trees on a fresh system, runs the copy and, with
// remove, the remove of the fresh copies (the paper's paired methodology),
// then hands the system to inspect, if non-nil, before shutting it down.
// For an inspect the driver trace keeps its per-request records too, from
// the copy on.
func copyBench(opt fsim.Options, users int, scale Scale, remove bool, inspect func(*fsim.System)) (cp, rm copyStats) {
	sys := mustSystem(opt)
	defer sys.Shutdown()
	prepTrees(sys, users, scale)
	sys.Driver.Trace.Keep = inspect != nil
	cp = runPhase(sys, users, func(p *fsim.Proc, u int) error {
		return workload.CopyTree(p, sys.FS, fsim.RootIno, fmt.Sprintf("src%d", u), fsim.RootIno, fmt.Sprintf("dst%d", u))
	})
	if remove {
		// Settle background work between phases, as consecutive benchmark
		// runs would.
		sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
		rm = runPhase(sys, users, func(p *fsim.Proc, u int) error {
			return workload.RemoveTree(p, sys.FS, fsim.RootIno, fmt.Sprintf("dst%d", u))
		})
	}
	if inspect != nil {
		inspect(sys)
	}
	return cp, rm
}

// TraceCopy runs the N-user copy benchmark — the mdsim -trace and -optrace
// modes — and returns the mean per-user elapsed time. inspect receives the
// system before shutdown, still holding the copy phase's window: the
// driver's per-request records (Trace.Stats) and, with Options.Observe, the
// operation spans.
func TraceCopy(opt fsim.Options, users int, scale Scale, inspect func(*fsim.System)) sim.Duration {
	cp, _ := copyBench(opt, users, scale, false, inspect)
	return cp.elapsed
}
