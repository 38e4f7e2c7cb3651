package harness

import (
	"fmt"

	"metaupdate/fsim"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// OpStatsExhibit is the operation-profile report behind mdsim -exp
// opstats: for each scheme, the 4-user copy and remove phases broken down
// per operation type (latency distribution + stage percentages), plus one
// cross-scheme counter table. It reads the same paired copy/remove cell the
// tables do, observed: every phase carries its counters and span profile.
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
	for _, s := range fsim.Schemes {
		res := get(copyRemoveCell(fsim.Options{Scheme: s, Observe: true}, users, cfg.Scale))
		for _, ph := range []struct {
			name string
			cs   copyStats
		}{{"copy", res.Copy}, {"remove", res.RemoveRes}} {
			tables = append(tables, opPhaseTable(s.String(), ph.name, users, ph.cs))
			st, su := ph.cs.stats, ph.cs.soft
			counters.AddRow(s.String(), ph.name,
				fmt.Sprintf("%d", st.SyncWrites), fmt.Sprintf("%d", st.DelayedWrites),
				fmt.Sprintf("%d", st.OrderingStalls), fmt.Sprintf("%d", su.Rollbacks),
				fmt.Sprintf("%d", su.CancelledAdds), fmt.Sprintf("%d", su.Workitems))
		}
	}
	tables = append(tables, counters)
	return tables
}

// opPhaseTable renders one phase's per-op digests: latency distribution in
// milliseconds, then the share of the op type's total virtual time spent
// in each stage. The stage percentages of any row sum to 100 (up to
// rounding) because the stage segments partition each span exactly.
func opPhaseTable(scheme, phase string, users int, cs copyStats) Table {
	t := Table{
		Title: fmt.Sprintf("Operation profile: %s — %d-user %s", scheme, users, phase),
		Note:  fmt.Sprintf("mean per-user elapsed %.2fs; stage columns are %% of the op type's total latency", cs.elapsed.Seconds()),
		Columns: []string{"op", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms",
			"total s", "cpu", "cacheread", "lock", "barrier", "queue", "media", "syncer",
			"netqueue", "wire", "other"},
	}
	for _, d := range cs.ops {
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
