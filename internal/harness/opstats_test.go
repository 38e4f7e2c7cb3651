package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
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
	const users = 4
	for _, v := range fiveSchemes() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			opt := v.opt
			opt.Observe = true
			sys := mustSystem(opt)
			defer sys.Shutdown()
			prepTrees(sys, users, opTestScale)

			sys.Obs.Reset()
			runCopy(sys, users)
			checkSpanPartition(t, "copy", sys.Obs.Spans())

			sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
			sys.Obs.Reset()
			runRemove(sys, users)
			checkSpanPartition(t, "remove", sys.Obs.Spans())
		})
	}
}

// sharedOpProfiles runs the five CellOpProfile cells once per test binary
// (on a shared runner, like mdsim -exp opstats) and hands the results to every
// invariant test.
var (
	opProfOnce sync.Once
	opProfs    map[fsim.Scheme]OpProfile
)

func sharedOpProfiles() map[fsim.Scheme]OpProfile {
	opProfOnce.Do(func() {
		r := NewRunner(0)
		vs := fiveSchemes()
		cells := make([]Cell, len(vs))
		for i, v := range vs {
			opt := v.opt
			opt.Observe = true
			cells[i] = Cell{Kind: CellOpProfile, Opt: opt, Users: 4, Scale: opTestScale}
		}
		res := r.All(cells)
		opProfs = make(map[fsim.Scheme]OpProfile, len(vs))
		for i, v := range vs {
			opProfs[v.opt.Scheme] = res[i].OpProf
		}
	})
	return opProfs
}

// TestCrossSchemeCounterInvariants pins the write-discipline relationships
// the paper's schemes are defined by.
func TestCrossSchemeCounterInvariants(t *testing.T) {
	profs := sharedOpProfiles()
	conv := profs[fsim.Conventional]

	// Conventional turns every ordered metadata update into a synchronous
	// write, so it must issue at least as many as any other scheme — in
	// both phases — and strictly more than zero.
	for ph, phase := range map[string]func(OpProfile) SchemeCounters{
		"copy":   func(p OpProfile) SchemeCounters { return p.Copy.Counters },
		"remove": func(p OpProfile) SchemeCounters { return p.Remove.Counters },
	} {
		if phase(conv).SyncWrites == 0 {
			t.Errorf("%s: Conventional issued no sync writes", ph)
		}
		for s, p := range profs {
			if s == fsim.Conventional {
				continue
			}
			if got, conv := phase(p).SyncWrites, phase(conv).SyncWrites; got > conv {
				t.Errorf("%s: %v issued %d sync writes > Conventional's %d", ph, s, got, conv)
			}
			// The delayed-write schemes must actually delay something.
			if phase(p).DelayedWrites == 0 {
				t.Errorf("%s: %v recorded no delayed writes", ph, s)
			}
		}
	}

	// Ordering stalls count requests blocked on flag/chain sequencing
	// edges; schemes running the driver in ignore mode (No Order,
	// Conventional, Soft Updates) must report exactly zero.
	for _, s := range []fsim.Scheme{fsim.NoOrder, fsim.Conventional, fsim.SoftUpdates} {
		p := profs[s]
		if p.Copy.Counters.OrderingStalls != 0 || p.Remove.Counters.OrderingStalls != 0 {
			t.Errorf("%v: ordering stalls = %d/%d (copy/remove), want 0/0",
				s, p.Copy.Counters.OrderingStalls, p.Remove.Counters.OrderingStalls)
		}
	}

	// Only Soft Updates has rollback machinery.
	for s, p := range profs {
		if s == fsim.SoftUpdates {
			continue
		}
		if p.Copy.Counters.Rollbacks != 0 || p.Remove.Counters.Workitems != 0 {
			t.Errorf("%v reports soft-updates counters: %+v / %+v", s, p.Copy.Counters, p.Remove.Counters)
		}
	}

	// Soft Updates under the paired copy/remove benchmark: the copy phase
	// must roll back unsafe dependencies when the syncer writes shared
	// metadata blocks, and the remove phase must run its deferred work
	// through workitems. (Rollbacks are add-side undos — an unsafe
	// directory add or allocation pointer reverted in the write image — so
	// a remove phase that starts from a settled image produces workitems
	// and cancelled adds, not rollbacks; see TestSoftUpdatesRollbackAccounting.)
	su := profs[fsim.SoftUpdates]
	if su.Copy.Counters.Rollbacks == 0 {
		t.Error("Soft Updates copy phase recorded no rollbacks")
	}
	if su.Copy.Counters.Rollbacks+su.Remove.Counters.Rollbacks == 0 {
		t.Error("Soft Updates paired copy/remove run recorded no rollbacks")
	}
	if su.Remove.Counters.Workitems == 0 {
		t.Error("Soft Updates remove phase recorded no workitems")
	}
}

// TestSoftUpdatesRollbackAccounting checks the profile's rollback counters
// against an independent snapshot diff of core.Stats taken around a
// replica of the same deterministic benchmark — the reported numbers must
// be exactly the scheme's own accounting, not a recomputation.
func TestSoftUpdatesRollbackAccounting(t *testing.T) {
	su := sharedOpProfiles()[fsim.SoftUpdates]

	sys := mustSystem(fsim.Options{Scheme: fsim.SoftUpdates, Observe: true})
	defer sys.Shutdown()
	prepTrees(sys, 4, opTestScale)

	before := sys.Soft.Stat
	runCopy(sys, 4)
	copyDiff := SchemeCounters{
		Rollbacks:     sys.Soft.Stat.Rollbacks - before.Rollbacks,
		CancelledAdds: sys.Soft.Stat.CancelledAdds - before.CancelledAdds,
		Workitems:     sys.Soft.Stat.Workitems - before.Workitems,
	}
	if copyDiff.Rollbacks == 0 {
		t.Error("independent copy run observed no rollbacks")
	}
	if got, want := su.Copy.Counters.Rollbacks, copyDiff.Rollbacks; got != want {
		t.Errorf("profile copy rollbacks = %d, core.Stats diff = %d", got, want)
	}
	if got, want := su.Copy.Counters.CancelledAdds, copyDiff.CancelledAdds; got != want {
		t.Errorf("profile copy cancelled adds = %d, core.Stats diff = %d", got, want)
	}
	if got, want := su.Copy.Counters.Workitems, copyDiff.Workitems; got != want {
		t.Errorf("profile copy workitems = %d, core.Stats diff = %d", got, want)
	}

	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	before = sys.Soft.Stat
	runRemove(sys, 4)
	remDiff := SchemeCounters{
		Rollbacks:     sys.Soft.Stat.Rollbacks - before.Rollbacks,
		CancelledAdds: sys.Soft.Stat.CancelledAdds - before.CancelledAdds,
		Workitems:     sys.Soft.Stat.Workitems - before.Workitems,
	}
	if got, want := su.Remove.Counters.Rollbacks, remDiff.Rollbacks; got != want {
		t.Errorf("profile remove rollbacks = %d, core.Stats diff = %d", got, want)
	}
	if got, want := su.Remove.Counters.Workitems, remDiff.Workitems; got != want {
		t.Errorf("profile remove workitems = %d, core.Stats diff = %d", got, want)
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

// TestOpTraceDeterministic asserts two fresh -optrace runs of the same
// configuration produce byte-identical Chrome traces.
func TestOpTraceDeterministic(t *testing.T) {
	run := func(buf *bytes.Buffer) int {
		n, elapsed, err := OpTraceCopy(fsim.Options{Scheme: fsim.SoftUpdates}, 4, 0.02, buf)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed <= 0 {
			t.Errorf("non-positive elapsed time %v", elapsed)
		}
		return n
	}
	var a, b bytes.Buffer
	na := run(&a)
	nb := run(&b)
	if na == 0 {
		t.Fatal("trace recorded no spans")
	}
	if na != nb {
		t.Errorf("span counts differ: %d vs %d", na, nb)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical runs produced different Chrome traces")
	}
}
