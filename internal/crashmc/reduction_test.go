package crashmc

// The driver hands the Recorder the barrier edges it wired, which are fewer
// than the predecessor relation holds pairs (dev.computeBarrier: one edge per
// flag chain, none to a request that a later pending write covers). The
// crash-state space is defined by downward-closed subsets of the pending
// writes, so what must not change is each node's closure over the pending
// set — and, end to end, the exploration's counts.

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// definitionTee sits between the driver and the Recorder under test. It
// passes every event on, and feeds a second Recorder the same timeline with
// each submission's preds replaced by what dev.Predecessors gives over its own
// copy of the pending set. At every submission it compares the two recordings'
// closures of the new node.
type definitionTee struct {
	t          *testing.T
	cfg        dev.Config
	wired, def *Recorder
	pending    map[uint64]*dev.Request
	lastFlagID uint64
	fewer      int // submissions wired behind fewer requests than the definition names
	shadowed   int // conflicting definition preds left unwired (a later write covers them)
}

func sortedIDs(set map[uint64]struct{}) []uint64 {
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// closure returns the pending writes n transitively waits for in rec.
func (o *definitionTee) closure(rec *Recorder, n *node) map[uint64]struct{} {
	out := map[uint64]struct{}{}
	for todo := slices.Clone(n.effPreds); len(todo) > 0; {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if _, pending := o.pending[id]; !pending {
			continue
		}
		if _, seen := out[id]; !seen {
			out[id] = struct{}{}
			todo = append(todo, rec.nodes[id].effPreds...)
		}
	}
	return out
}

func (o *definitionTee) RequestSubmitted(q *dev.Request, preds []uint64) {
	prior := make([]*dev.Request, 0, len(o.pending))
	for _, p := range o.pending {
		prior = append(prior, p)
	}
	def := sortedIDs(dev.Predecessors(o.cfg, q, prior, o.lastFlagID))
	if len(preds) < len(def) {
		o.fewer++
	}
	for _, id := range def {
		p := o.pending[id]
		overlap := p.LBN < q.LBN+int64(q.Count) && q.LBN < p.LBN+int64(p.Count)
		if _, wired := slices.BinarySearch(preds, id); overlap && !wired && (p.Op == disk.Write || q.Op == disk.Write) {
			o.shadowed++
		}
	}
	o.wired.RequestSubmitted(q, preds)
	o.def.RequestSubmitted(q, def)
	got, want := o.closure(o.wired, o.wired.nodes[q.ID]), o.closure(o.def, o.def.nodes[q.ID])
	if !maps.Equal(got, want) {
		o.t.Errorf("request %d: closure over the pending set %v, by the definition %v",
			q.ID, sortedIDs(got), sortedIDs(want))
	}
	o.pending[q.ID] = q
	if q.Flag && o.cfg.Mode == dev.ModeFlag {
		o.lastFlagID = q.ID
	}
}

func (o *definitionTee) retired(ids []uint64) {
	for _, id := range ids {
		delete(o.pending, id)
	}
}

func (o *definitionTee) RequestsCompleted(ids []uint64, at sim.Time) {
	o.wired.RequestsCompleted(ids, at)
	o.def.RequestsCompleted(ids, at)
	o.retired(ids)
}

func (o *definitionTee) RequestsFailed(ids []uint64, at sim.Time) {
	o.wired.RequestsFailed(ids, at)
	o.def.RequestsFailed(ids, at)
	o.retired(ids)
}

func (o *definitionTee) BatchTorn(ids []uint64, sectors int, at sim.Time) {
	o.wired.BatchTorn(ids, sectors, at)
	o.def.BatchTorn(ids, sectors, at)
}

// attachTee puts a definitionTee between sys's driver and rec.
func attachTee(t *testing.T, sys *fsim.System, rec *Recorder) *definitionTee {
	tee := &definitionTee{
		t: t, cfg: sys.Driver.Config(), wired: rec,
		def:     &Recorder{nodes: map[uint64]*node{}, hseed: rec.hseed},
		pending: map[uint64]*dev.Request{},
	}
	sys.Driver.SetObserver(tee)
	return tee
}

// faultPlan tears and fails writes; under it a timeline carries every kind
// of event the Recorder handles.
var faultPlan = fsim.FaultSpec{Seed: 3, TransientPer10k: 1200, TornPer10k: 300, BadSectors: 2}

// exploreCreateRemove records the 30-file create/remove workload on a
// compact file system under opt — observe, when non-nil, may install an
// observer between the driver and the Recorder first — and explores the
// whole timeline (the budget is not reached).
func exploreCreateRemove(t *testing.T, opt fsim.Options, observe func(sys *fsim.System, rec *Recorder)) Stats {
	t.Helper()
	opt.DiskBytes, opt.NInodes, opt.CacheBytes = 6<<20, 1024, 2<<20
	sys, err := fsim.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := Attach(sys.Driver, sys.Disk)
	if observe != nil {
		observe(sys, rec)
	}
	sys.Run(func(p *fsim.Proc) {
		// On the faulty disk operations may fail; the timeline is what is
		// under test, not the workload's success.
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "mc")
		if err != nil {
			return
		}
		workload.CreateFiles(p, sys.FS, dir, 30, 1024)
		sys.FS.Sync(p)
		workload.RemoveFiles(p, sys.FS, dir, 30)
		sys.FS.Sync(p)
	})
	sys.Shutdown()
	got := rec.Explore(Config{Workers: 2, Budget: 40000, PerInstant: 256}).Stats
	if opt.Faults.Enabled() && (got.Torn == 0 || got.Failed == 0) {
		t.Errorf("fault plan too tame: %d torn batches, %d failed requests", got.Torn, got.Failed)
	}
	return got
}

// checkCounts compares an exploration's counts with pinned ones.
func checkCounts(t *testing.T, got, want Stats) {
	t.Helper()
	if got.Explored != want.Explored || got.Deduped != want.Deduped ||
		got.Checked != want.Checked || got.Violating != want.Violating {
		t.Errorf("explored/deduped/checked/violating = %d/%d/%d/%d, pinned %d/%d/%d/%d",
			got.Explored, got.Deduped, got.Checked, got.Violating,
			want.Explored, want.Deduped, want.Checked, want.Violating)
	}
}

// TestReducedGraphSameStateSpace records Flag (Part-NR) and Chains
// barrier-frees timelines, one under the fault plan, and checks the
// closures submission by submission and the exploration's counts against
// values pinned from the commit before the driver reduced its graph
// (443d42b, where this test's closures agree trivially: preds were the
// definition).
func TestReducedGraphSameStateSpace(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  fsim.Options
		want Stats
	}{
		{"flag", fsim.Options{Scheme: fsim.SchedulerFlag},
			Stats{Explored: 14153, Deduped: 231713, Checked: 14153, Violating: 0}},
		{"chains-barrier-frees", fsim.Options{Scheme: fsim.SchedulerChains, Explicit: true, CB: true, BarrierFrees: true},
			Stats{Explored: 8771, Deduped: 123331, Checked: 8771, Violating: 0}},
		{"flag-faulty", fsim.Options{Scheme: fsim.SchedulerFlag, Faults: faultPlan, MaxRetries: 1},
			Stats{Explored: 14310, Deduped: 253134, Checked: 14310, Violating: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tee *definitionTee
			got := exploreCreateRemove(t, tc.opt, func(sys *fsim.System, rec *Recorder) {
				tee = attachTee(t, sys, rec)
			})
			if tee.fewer == 0 {
				t.Error("no submission was wired behind fewer requests than the definition names: nothing reduced, nothing tested")
			}
			checkCounts(t, got, tc.want)
		})
	}
}

// TestShadowedConflictsSameClosure records a hot-block timeline under Flag
// and under Chains: four users each create files of one fragment in a
// directory of their own, with a cache of 256 KB, so directory and inode
// blocks are rewritten while earlier writes of them are still pending. A
// conflicting request the driver leaves unwired because a later pending
// write covers it must change no closure over the pending set (the tee
// checks each submission), and the rule must have fired.
func TestShadowedConflictsSameClosure(t *testing.T) {
	for name, opt := range map[string]fsim.Options{
		"flag":   {Scheme: fsim.SchedulerFlag},
		"chains": {Scheme: fsim.SchedulerChains},
	} {
		t.Run(name, func(t *testing.T) {
			opt.DiskBytes, opt.NInodes, opt.CacheBytes = 6<<20, 1024, 256<<10
			sys, err := fsim.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			tee := attachTee(t, sys, Attach(sys.Driver, sys.Disk))
			const users, files = 4, 240 // within the 1024 inodes
			dirs := make([]fsim.Ino, users)
			sys.Run(func(p *fsim.Proc) {
				for u := range dirs {
					dirs[u], err = sys.FS.Mkdir(p, fsim.RootIno, fmt.Sprintf("u%d", u))
					if err != nil {
						t.Fatal(err)
					}
				}
			})
			sys.RunUsers(users, func(p *fsim.Proc, u int) {
				if err := workload.CreateFiles(p, sys.FS, dirs[u], files, 1024); err != nil {
					t.Error(err)
				}
			})
			sys.Shutdown()
			if tee.shadowed == 0 {
				t.Error("no conflicting request was left unwired behind a covering write: the timeline tests nothing")
			}
		})
	}
}

// TestFaultyChainsStateSpace pins the crash-state counts of Chains and Async
// under the fault plan. Both name a buffer's newest write in flight
// (cache.Buf.WriteReq) as a dependency, and it is after a failed write that
// the buffer forgets a request the scheme once remembered — harmless only
// because the driver ignores a dependency that is no longer pending. Chains
// wires its explicit lists unreduced, so TestReducedGraphSameStateSpace's
// reduction check does not apply. Chains' one violating state comes from
// failed writes, which void every scheme's contract (DESIGN.md §10); it is
// pinned, not a finding.
func TestFaultyChainsStateSpace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme fsim.Scheme
		want   Stats
	}{
		{"chains", fsim.SchedulerChains,
			Stats{Torn: 3, Failed: 3, Explored: 9241, Deduped: 162490, Checked: 9241, Violating: 1}},
		{"async", fsim.AsyncDurability,
			Stats{Torn: 4, Failed: 3, Explored: 7840, Deduped: 18345, Checked: 7840, Violating: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := exploreCreateRemove(t, fsim.Options{Scheme: tc.scheme, Faults: faultPlan, MaxRetries: 1}, nil)
			if got.Torn != tc.want.Torn || got.Failed != tc.want.Failed {
				t.Errorf("torn/failed = %d/%d, pinned %d/%d", got.Torn, got.Failed, tc.want.Torn, tc.want.Failed)
			}
			checkCounts(t, got, tc.want)
		})
	}
}
