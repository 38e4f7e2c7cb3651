package harness

import (
	"fmt"
	"io"

	"metaupdate/fsim"
	"metaupdate/internal/core"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// SchemeCounters is the per-scheme write-discipline activity of one
// benchmark phase: how the scheme expressed its ordering needs (Bwrite vs
// Bdwrite), how often the driver actually stalled a request on flag/chain
// sequencing, and — for soft updates — the rollback/undo work surfaced
// from core.Stats.
type SchemeCounters struct {
	SyncWrites     int64 `json:"sync_writes"`
	DelayedWrites  int64 `json:"delayed_writes"`
	OrderingStalls int64 `json:"ordering_stalls"`
	Rollbacks      int64 `json:"rollbacks"`
	CancelledAdds  int64 `json:"cancelled_adds"`
	Workitems      int64 `json:"workitems"`
}

// OpPhaseProfile is one phase (copy or remove) of a CellOpProfile run:
// per-op-type latency/stage digests plus the phase's counters. The span
// window matches the phase's stats window — ResetStats through the
// settle-sync — so the sync that flushes the phase's delayed writes is
// profiled too (as the "sync" op row).
type OpPhaseProfile struct {
	Elapsed  sim.Duration
	Ops      []obs.OpDigest
	Counters SchemeCounters
}

// OpProfile is what one CellOpProfile run measures.
type OpProfile struct {
	Copy   OpPhaseProfile
	Remove OpPhaseProfile
}

// opProfileRun executes the paired copy/remove benchmark with the span
// recorder attached. Tracing is a pure observer, so the simulation is
// virtual-time-identical to the untraced CellCopy run of the same options.
func opProfileRun(opt fsim.Options, users int, scale Scale) OpProfile {
	opt.Observe = true
	sys := mustSystem(opt)
	defer sys.Shutdown()
	prepTrees(sys, users, scale)
	var out OpProfile
	out.Copy = opPhase(sys, func() copyStats { return runCopy(sys, users) })
	// Settle background work between phases, as copyBench does.
	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	out.Remove = opPhase(sys, func() copyStats { return runRemove(sys, users) })
	return out
}

// opPhase brackets one benchmark phase: reset the span window, run it, and
// collect the digests and counters. Soft-updates counters are cumulative
// on core.Stats, so the phase value is a snapshot difference.
func opPhase(sys *fsim.System, bench func() copyStats) OpPhaseProfile {
	var su0 core.Stats
	if sys.Soft != nil {
		su0 = sys.Soft.Stat
	}
	sys.Obs.Reset()
	cs := bench()
	c := SchemeCounters{
		SyncWrites:     cs.stats.SyncWrites,
		DelayedWrites:  cs.stats.DelayedWrites,
		OrderingStalls: cs.stats.OrderingStalls,
	}
	if sys.Soft != nil {
		c.Rollbacks = sys.Soft.Stat.Rollbacks - su0.Rollbacks
		c.CancelledAdds = sys.Soft.Stat.CancelledAdds - su0.CancelledAdds
		c.Workitems = sys.Soft.Stat.Workitems - su0.Workitems
	}
	return OpPhaseProfile{Elapsed: cs.elapsed, Ops: sys.Obs.Profile(), Counters: c}
}

// OpStatsExhibit is the operation-profile report behind mdsim -exp
// opstats: for each of the five schemes, the 4-user copy and remove phases
// broken down per operation type (latency distribution + stage
// percentages), plus one cross-scheme counter table.
var OpStatsExhibit = &Exhibit{Name: "opstats", Build: buildOpStats}

func buildOpStats(cfg Config, get func(Cell) CellResult) []Table {
	const users = 4
	counters := Table{
		Title: fmt.Sprintf("Write-discipline counters — %d-user copy/remove, system-wide per phase", users),
		Note:  "ordering stalls count requests blocked on flag/chain sequencing (conflict-order edges excluded)",
		Columns: []string{"scheme", "phase", "sync writes", "delayed writes",
			"ordering stalls", "rollbacks", "cancelled adds", "workitems"},
	}
	var tables []Table
	for _, v := range fiveSchemes() {
		opt := v.opt
		opt.Observe = true
		prof := get(Cell{Kind: CellOpProfile, Opt: opt, Users: users, Scale: cfg.Scale}).OpProf
		for _, ph := range []struct {
			name string
			p    OpPhaseProfile
		}{{"copy", prof.Copy}, {"remove", prof.Remove}} {
			tables = append(tables, opPhaseTable(v.name, ph.name, users, ph.p))
			c := ph.p.Counters
			counters.AddRow(v.name, ph.name,
				fmt.Sprintf("%d", c.SyncWrites), fmt.Sprintf("%d", c.DelayedWrites),
				fmt.Sprintf("%d", c.OrderingStalls), fmt.Sprintf("%d", c.Rollbacks),
				fmt.Sprintf("%d", c.CancelledAdds), fmt.Sprintf("%d", c.Workitems))
		}
	}
	tables = append(tables, counters)
	return tables
}

// opPhaseTable renders one phase's per-op digests: latency distribution in
// milliseconds, then the share of the op type's total virtual time spent
// in each stage. The stage percentages of any row sum to 100 (up to
// rounding) because the stage segments partition each span exactly.
func opPhaseTable(scheme, phase string, users int, p OpPhaseProfile) Table {
	t := Table{
		Title: fmt.Sprintf("Operation profile: %s — %d-user %s", scheme, users, phase),
		Note:  fmt.Sprintf("mean per-user elapsed %.2fs; stage columns are %% of the op type's total latency", p.Elapsed.Seconds()),
		Columns: []string{"op", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms",
			"total s", "cpu", "cacheread", "lock", "barrier", "queue", "media", "syncer",
			"netqueue", "wire", "other"},
	}
	for _, d := range p.Ops {
		row := []string{
			d.Op.String(),
			fmt.Sprintf("%d", d.Count),
			fmt.Sprintf("%.3f", d.Lat.MeanMS),
			fmt.Sprintf("%.3f", d.Lat.P50MS),
			fmt.Sprintf("%.3f", d.Lat.P90MS),
			fmt.Sprintf("%.3f", d.Lat.P99MS),
			fmt.Sprintf("%.3f", d.Lat.MaxMS),
			fmt.Sprintf("%.2f", d.Total.Seconds()),
		}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			row = append(row, stagePct(d.Seg[st], d.Total))
		}
		t.AddRow(row...)
	}
	return t
}

func stagePct(seg, total sim.Duration) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(seg)/float64(total))
}

// OpTraceCopy runs the N-user copy benchmark with the span recorder
// attached and writes the measured window (ResetStats through settle-sync)
// as Chrome trace-event JSON — the mdsim -optrace mode. It returns the
// span count and the mean per-user elapsed time.
func OpTraceCopy(opt fsim.Options, users int, scale Scale, w io.Writer) (int, sim.Duration, error) {
	opt.Observe = true
	sys := mustSystem(opt)
	defer sys.Shutdown()
	prepTrees(sys, users, scale)
	sys.Obs.Reset() // drop the mount/prep spans; trace the benchmark only
	cs := runCopy(sys, users)
	if err := sys.Obs.WriteChromeTrace(w); err != nil {
		return 0, 0, err
	}
	return len(sys.Obs.Spans()), cs.elapsed, nil
}
