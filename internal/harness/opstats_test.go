package harness

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/obs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// opTestScale keeps the observability suite's simulations affordable under
// -race while leaving every scheme enough metadata churn to exercise
// rollbacks, ordering stalls, and the syncer.
const opTestScale Scale = 0.05

// checkSpanPartition asserts the obs.Span invariant on every recorded
// span: the stage segments are non-negative and sum to the end-to-end
// latency exactly — no gaps, no overlaps, in virtual nanoseconds.
func checkSpanPartition(t *testing.T, phase string, spans []obs.SpanRecord) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: no spans recorded", phase)
		return
	}
	bad := 0
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			t.Errorf("%s: span %d (%v) ends before it starts: [%d, %d)", phase, i, s.Op, s.Start, s.End)
			bad++
		}
		var sum sim.Duration
		for st, v := range s.Seg {
			if v < 0 {
				t.Errorf("%s: span %d (%v) has negative %v segment %d", phase, i, s.Op, obs.Stage(st), v)
				bad++
			}
			sum += v
		}
		if total := s.End - s.Start; sum != total {
			t.Errorf("%s: span %d (%v): sum(Seg) = %d, End-Start = %d (gap/overlap of %d ns)",
				phase, i, s.Op, sum, total, total-sum)
			bad++
		}
		if bad > 5 {
			t.Fatalf("%s: too many partition violations, stopping", phase)
		}
	}
}

// TestSpanPartitionProperty is the property test behind the stage
// taxonomy: for every scheme, on the 4-user copy and remove workloads,
// each operation span's stage segments partition its latency exactly.
func TestSpanPartitionProperty(t *testing.T) {
	for _, s := range fsim.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			// The recorder holds the last phase's window when inspect runs.
			for phase, remove := range map[string]bool{"copy": false, "remove": true} {
				copyBench(fsim.Options{Scheme: s, Observe: true}, 4, opTestScale, remove, func(sys *fsim.System) {
					checkSpanPartition(t, phase, sys.Obs.Spans())
				})
			}
		})
	}
}

// observedCopies runs the observed paired copy/remove cell of every scheme
// once per test binary (on a shared runner, like mdsim -exp opstats) and
// hands the results to every invariant test.
var observedCopies = sync.OnceValue(func() map[fsim.Scheme]CellResult {
	cells := make([]Cell, len(fsim.Schemes))
	for i, s := range fsim.Schemes {
		cells[i] = copyRemoveCell(fsim.Options{Scheme: s, Observe: true}, 4, opTestScale)
	}
	res := NewRunner(0).All(cells)
	out := make(map[fsim.Scheme]CellResult, len(cells))
	for i, s := range fsim.Schemes {
		out[s] = res[i]
	}
	return out
})

// TestObservedCopyMatchesPlain: the span recorder is a pure observer, so
// the observed copy/remove cell of every scheme measures exactly what the
// plain one does — elapsed time, statistics and Soft Updates counters in
// both phases — and only the observed one carries an operation profile.
func TestObservedCopyMatchesPlain(t *testing.T) {
	observed := observedCopies()
	r := NewRunner(0)
	for _, s := range fsim.Schemes {
		plain := r.Get(copyRemoveCell(fsim.Options{Scheme: s}, 4, opTestScale))
		obsd := observed[s]
		for _, ph := range []struct {
			name       string
			plain, obs copyStats
		}{{"copy", plain.Copy, obsd.Copy}, {"remove", plain.RemoveRes, obsd.RemoveRes}} {
			p, o := ph.plain, ph.obs
			if p.elapsed != o.elapsed || p.stats != o.stats || p.soft != o.soft {
				t.Errorf("%v %s: observed run differs from the plain one:\n plain    %v %+v %+v\n observed %v %+v %+v",
					s, ph.name, p.elapsed, p.stats, p.soft, o.elapsed, o.stats, o.soft)
			}
			if len(p.ops) != 0 || len(o.ops) == 0 {
				t.Errorf("%v %s: %d plain / %d observed op digests, want 0 / some", s, ph.name, len(p.ops), len(o.ops))
			}
		}
	}
}

// TestCrossSchemeCounterInvariants pins the write-discipline relationships
// the paper's schemes are defined by.
func TestCrossSchemeCounterInvariants(t *testing.T) {
	res := observedCopies()
	conv := res[fsim.Conventional]

	// Conventional turns every ordered metadata update into a synchronous
	// write, so it must issue at least as many as any other scheme — in
	// both phases — and strictly more than zero.
	for ph, phase := range map[string]func(CellResult) copyStats{
		"copy":   func(r CellResult) copyStats { return r.Copy },
		"remove": func(r CellResult) copyStats { return r.RemoveRes },
	} {
		if phase(conv).stats.SyncWrites == 0 {
			t.Errorf("%s: Conventional issued no sync writes", ph)
		}
		for s, r := range res {
			if s == fsim.Conventional {
				continue
			}
			if got, conv := phase(r).stats.SyncWrites, phase(conv).stats.SyncWrites; got > conv {
				t.Errorf("%s: %v issued %d sync writes > Conventional's %d", ph, s, got, conv)
			}
			// The delayed-write schemes must actually delay something.
			if phase(r).stats.DelayedWrites == 0 {
				t.Errorf("%s: %v recorded no delayed writes", ph, s)
			}
		}
	}

	// Ordering stalls count requests blocked on flag/chain sequencing
	// edges; schemes running the driver in ignore mode (No Order,
	// Conventional, Soft Updates) must report exactly zero.
	for _, s := range []fsim.Scheme{fsim.NoOrder, fsim.Conventional, fsim.SoftUpdates} {
		r := res[s]
		if r.Copy.stats.OrderingStalls != 0 || r.RemoveRes.stats.OrderingStalls != 0 {
			t.Errorf("%v: ordering stalls = %d/%d (copy/remove), want 0/0",
				s, r.Copy.stats.OrderingStalls, r.RemoveRes.stats.OrderingStalls)
		}
	}

	// Only Soft Updates has rollback machinery.
	for s, r := range res {
		if s == fsim.SoftUpdates {
			continue
		}
		if r.Copy.soft.Rollbacks != 0 || r.RemoveRes.soft.Workitems != 0 {
			t.Errorf("%v reports soft-updates counters: %+v / %+v", s, r.Copy.soft, r.RemoveRes.soft)
		}
	}

	// Soft Updates under the paired copy/remove benchmark: the copy phase
	// must roll back unsafe dependencies when the syncer writes shared
	// metadata blocks, and the remove phase must run its deferred work
	// through workitems. (Rollbacks are add-side undos — an unsafe
	// directory add or allocation pointer reverted in the write image — so
	// a remove phase that starts from a settled image produces workitems
	// and cancelled adds, not rollbacks; see TestSoftUpdatesRollbackAccounting.)
	su := res[fsim.SoftUpdates]
	if su.Copy.soft.Rollbacks == 0 {
		t.Error("Soft Updates copy phase recorded no rollbacks")
	}
	if su.Copy.soft.Rollbacks+su.RemoveRes.soft.Rollbacks == 0 {
		t.Error("Soft Updates paired copy/remove run recorded no rollbacks")
	}
	if su.RemoveRes.soft.Workitems == 0 {
		t.Error("Soft Updates remove phase recorded no workitems")
	}
}

// TestSoftUpdatesRollbackAccounting checks the phase's Soft Updates
// counters against an independent snapshot diff of ordering.SoftStats taken around
// a replica of the same deterministic benchmark — the reported numbers must
// be exactly the scheme's own accounting, not a recomputation.
func TestSoftUpdatesRollbackAccounting(t *testing.T) {
	su := observedCopies()[fsim.SoftUpdates]

	sys := mustSystem(fsim.Options{Scheme: fsim.SoftUpdates, Observe: true})
	defer sys.Shutdown()
	prepTrees(sys, 4, opTestScale)
	// replica runs one phase — every user's work, then the settle-sync —
	// and returns what it added to ordering.SoftStats.
	replica := func(work func(p *fsim.Proc, u int) error) ordering.SoftStats {
		before := sys.Soft.Stat
		sys.RunUsers(4, func(p *fsim.Proc, u int) {
			if err := work(p, u); err != nil {
				t.Error(err)
			}
		})
		sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
		after := sys.Soft.Stat
		return ordering.SoftStats{
			Rollbacks:     after.Rollbacks - before.Rollbacks,
			CancelledAdds: after.CancelledAdds - before.CancelledAdds,
			Workitems:     after.Workitems - before.Workitems,
		}
	}

	copyDiff := replica(func(p *fsim.Proc, u int) error {
		return workload.CopyTree(p, sys.FS, fsim.RootIno, fmt.Sprintf("src%d", u), fsim.RootIno, fmt.Sprintf("dst%d", u))
	})
	if copyDiff.Rollbacks == 0 {
		t.Error("independent copy run observed no rollbacks")
	}
	if got, want := su.Copy.soft.Rollbacks, copyDiff.Rollbacks; got != want {
		t.Errorf("profile copy rollbacks = %d, ordering.SoftStats diff = %d", got, want)
	}
	if got, want := su.Copy.soft.CancelledAdds, copyDiff.CancelledAdds; got != want {
		t.Errorf("profile copy cancelled adds = %d, ordering.SoftStats diff = %d", got, want)
	}
	if got, want := su.Copy.soft.Workitems, copyDiff.Workitems; got != want {
		t.Errorf("profile copy workitems = %d, ordering.SoftStats diff = %d", got, want)
	}

	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	remDiff := replica(func(p *fsim.Proc, u int) error {
		return workload.RemoveTree(p, sys.FS, fsim.RootIno, fmt.Sprintf("dst%d", u))
	})
	if got, want := su.RemoveRes.soft.Rollbacks, remDiff.Rollbacks; got != want {
		t.Errorf("profile remove rollbacks = %d, ordering.SoftStats diff = %d", got, want)
	}
	if got, want := su.RemoveRes.soft.Workitems, remDiff.Workitems; got != want {
		t.Errorf("profile remove workitems = %d, ordering.SoftStats diff = %d", got, want)
	}
	if remDiff.Workitems == 0 {
		t.Error("independent remove run observed no workitems")
	}
}

// opStatsText renders the full mdsim -exp opstats report through a runner with
// the given worker count, exactly as cmd/mdsim does.
func opStatsText(workers int, scale Scale) (string, *Runner, Config) {
	r := NewRunner(workers)
	cfg := Config{Scale: scale, Runner: r}
	var sb strings.Builder
	for _, tb := range OpStatsExhibit.Tables(cfg) {
		tb.Fprint(&sb)
	}
	return sb.String(), r, cfg
}

// TestOpStatsDeterministic asserts the opstats report is byte-identical
// for a serial and a parallel runner, and for a cold versus warm memo.
func TestOpStatsDeterministic(t *testing.T) {
	const scale = 0.02 // shapes don't matter here, only byte equality
	serial, _, _ := opStatsText(1, scale)
	parallel, r4, cfg := opStatsText(4, scale)
	if serial == "" {
		t.Fatal("empty opstats report")
	}
	if !strings.Contains(serial, "Write-discipline counters") {
		t.Error("report is missing the counters table")
	}
	if serial != parallel {
		t.Errorf("opstats differs between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s", serial, parallel)
	}

	hits0 := r4.Stats().Hits
	var warm strings.Builder
	for _, tb := range OpStatsExhibit.Tables(cfg) {
		tb.Fprint(&warm)
	}
	if warm.String() != parallel {
		t.Error("opstats differs between cold and warm memo on the same runner")
	}
	if r4.Stats().Hits <= hits0 {
		t.Error("warm rerun did not hit the memo")
	}
}
