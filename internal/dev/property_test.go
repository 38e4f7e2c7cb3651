package dev

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// The driver's one job is to never violate the contract of its ordering
// mode, no matter what request stream arrives. These properties replay
// random streams and verify the completion order against an oracle.

type completionRecorder struct {
	order []uint64
	pos   map[uint64]int
}

// randomStream submits a random mix of reads and writes (some flagged, some
// with dependencies on earlier requests) from a simulated process with
// random think times, then runs to completion.
func randomStream(t *testing.T, cfg Config, seed int64, n int) ([]*Request, *completionRecorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	drv := New(eng, dsk, cfg)

	var reqs []*Request
	done := false
	eng.Spawn("submitter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lbn := rng.Int63n(dsk.Sectors() - 16)
			count := 1 + rng.Intn(8)
			r := &Request{LBN: lbn, Count: count}
			if rng.Intn(4) == 0 {
				r.Op = disk.Read
				r.Buf = make([]byte, count*disk.SectorSize)
			} else {
				r.Op = disk.Write
				r.Data = make([]byte, count*disk.SectorSize)
				if cfg.Mode == ModeFlag && rng.Intn(3) == 0 {
					r.Flag = true
				}
				if cfg.Mode == ModeChains && len(reqs) > 0 && rng.Intn(3) == 0 {
					// Depend on up to two random earlier requests.
					for d := 0; d < 1+rng.Intn(2); d++ {
						r.DependsOn = append(r.DependsOn, reqs[rng.Intn(len(reqs))].ID)
					}
				}
			}
			drv.Submit(r)
			reqs = append(reqs, r)
			if rng.Intn(3) == 0 {
				p.Sleep(sim.Duration(rng.Int63n(int64(12 * sim.Millisecond))))
			}
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("submitter did not finish")
	}
	rec := &completionRecorder{pos: make(map[uint64]int)}
	// Reconstruct completion order from the trace: it appends at completion.
	// Simpler: verify every request completed and build order from Done
	// FiredAt plus submission order as a tie-break.
	type fin struct {
		id uint64
		at sim.Time
		ix int
	}
	var fins []fin
	for i, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d never completed", r.ID)
		}
		fins = append(fins, fin{r.ID, r.Done.FiredAt, i})
	}
	// Stable order: completion time, then submission index (batch members
	// complete at the same instant in submission order within the batch).
	for i := 1; i < len(fins); i++ {
		for j := i; j > 0 && (fins[j].at < fins[j-1].at ||
			(fins[j].at == fins[j-1].at && fins[j].ix < fins[j-1].ix)); j-- {
			fins[j], fins[j-1] = fins[j-1], fins[j]
		}
	}
	for _, f := range fins {
		rec.pos[f.id] = len(rec.order)
		rec.order = append(rec.order, f.id)
	}
	return reqs, rec
}

func TestPropertyChainsRespectDependencies(t *testing.T) {
	f := func(seed int64) bool {
		reqs, rec := randomStream(t, Config{Mode: ModeChains}, seed, 40)
		for _, r := range reqs {
			for _, dep := range r.DependsOn {
				if rec.pos[dep] > rec.pos[r.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPartSemantics(t *testing.T) {
	// Part: no write submitted after a flagged write may complete before
	// it.
	f := func(seed int64) bool {
		reqs, rec := randomStream(t, Config{Mode: ModeFlag, Sem: SemPart}, seed, 40)
		for i, r := range reqs {
			if !r.Flag {
				continue
			}
			for _, later := range reqs[i+1:] {
				if later.Op == disk.Write && rec.pos[later.ID] < rec.pos[r.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBackSemantics(t *testing.T) {
	// Back: a write submitted after a flagged write completes after the
	// flagged write AND after everything submitted before the flag.
	f := func(seed int64) bool {
		reqs, rec := randomStream(t, Config{Mode: ModeFlag, Sem: SemBack}, seed, 30)
		for i, rf := range reqs {
			if !rf.Flag {
				continue
			}
			for _, later := range reqs[i+1:] {
				if later.Op != disk.Write {
					continue
				}
				for _, earlier := range reqs[:i+1] {
					if rec.pos[later.ID] < rec.pos[earlier.ID] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFullSemantics(t *testing.T) {
	// Full: additionally, the flagged write itself completes after every
	// previously submitted request.
	f := func(seed int64) bool {
		reqs, rec := randomStream(t, Config{Mode: ModeFlag, Sem: SemFull}, seed, 30)
		for i, rf := range reqs {
			if !rf.Flag {
				continue
			}
			for _, earlier := range reqs[:i] {
				if rec.pos[rf.ID] < rec.pos[earlier.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyConflictingWritesOrdered(t *testing.T) {
	// In every mode, overlapping writes complete in submission order and
	// the media ends with the last writer's data.
	modes := []Config{
		{Mode: ModeIgnore},
		{Mode: ModeFlag, Sem: SemPart, NR: true},
		{Mode: ModeChains},
	}
	f := func(seed int64, modeIx uint8) bool {
		cfg := modes[int(modeIx)%len(modes)]
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		dsk := disk.New(disk.HPC2447(), 8<<20)
		drv := New(eng, dsk, cfg)
		// All writes to the same 4 sectors, distinct fill bytes.
		var reqs []*Request
		eng.Spawn("s", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				data := make([]byte, 4*disk.SectorSize)
				for j := range data {
					data[j] = byte(i + 1)
				}
				r := &Request{Op: disk.Write, LBN: 100, Count: 4, Data: data,
					Flag: rng.Intn(2) == 0}
				drv.Submit(r)
				reqs = append(reqs, r)
				if rng.Intn(2) == 0 {
					p.Sleep(sim.Duration(rng.Int63n(int64(5 * sim.Millisecond))))
				}
			}
		})
		eng.Run()
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Done.FiredAt < reqs[i-1].Done.FiredAt {
				return false
			}
		}
		got := make([]byte, 4*disk.SectorSize)
		dsk.ReadAt(100, got)
		return got[0] == 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// barrierOracle checks the barrier the driver wires and enforces against the
// definition. It keeps its own copy of the pending set and of the last
// flagged ID, fed only by observer events, and asks the exported oracle —
// predecessorOf applied to every pending request — what each submission must
// wait for. The driver may wire fewer edges than that (one per flag chain,
// not one per flagged request), so the oracle pins what the representation
// must preserve instead of the representation:
//
//   - at submission, the wired preds are a duplicate-free subset of the
//     oracle set, nwait counts them, every member of the oracle set is
//     reachable from the request through wired edges between pending requests,
//     and a conflicting member is left unwired only if it is shadowed;
//   - at retirement, no member of a retiring request's oracle set is still
//     pending (nor, therefore, in the same batch), and the request became
//     ready at the instant the last of them retired.
type barrierOracle struct {
	cfg        Config
	now        func() sim.Time
	pending    map[uint64]*Request
	want       map[uint64]map[uint64]struct{} // oracle set at submission, per request ever submitted
	wired      map[uint64][]uint64            // wired preds, per pending request
	retiredAt  map[uint64]sim.Time
	lastFlagID uint64
	edges      int // oracle pairs
	wiredEdges int
	shadowed   int   // conflicting oracle pairs left unwired: the earlier request was shadowed
	err        error // the first disagreement
}

func newBarrierOracle(cfg Config, now func() sim.Time) *barrierOracle {
	return &barrierOracle{
		cfg:       cfg,
		now:       now,
		pending:   map[uint64]*Request{},
		want:      map[uint64]map[uint64]struct{}{},
		wired:     map[uint64][]uint64{},
		retiredAt: map[uint64]sim.Time{},
	}
}

func (o *barrierOracle) fail(r *Request, format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("request %d (op %v lbn %d count %d flag %v deps %v): %s",
			r.ID, r.Op, r.LBN, r.Count, r.Flag, r.DependsOn, fmt.Sprintf(format, args...))
	}
}

func (o *barrierOracle) RequestSubmitted(r *Request, preds []uint64) {
	prior := make([]*Request, 0, len(o.pending))
	for _, q := range o.pending {
		prior = append(prior, q)
	}
	want := Predecessors(o.cfg, r, prior, o.lastFlagID)
	if int(r.nwait) != len(preds) || !slices.IsSorted(preds) || len(slices.Compact(slices.Clone(preds))) != len(preds) {
		o.fail(r, "nwait %d, preds %v: not one count per distinct sorted pred", r.nwait, preds)
	}
	reach := map[uint64]struct{}{}
	for todo := slices.Clone(preds); len(todo) > 0; {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if _, seen := reach[id]; !seen {
			reach[id] = struct{}{}
			todo = append(todo, o.wired[id]...) // a retired request's entry is gone
		}
	}
	for _, id := range preds {
		if _, ok := want[id]; !ok {
			o.fail(r, "wired behind %d, which the oracle set %v does not hold", id, want)
		}
	}
	for id := range want {
		if _, ok := reach[id]; !ok {
			o.fail(r, "oracle predecessor %d not reachable through wired preds %v", id, preds)
		}
		if q := o.pending[id]; conflicts(r, q) {
			if _, wired := slices.BinarySearch(preds, id); !wired {
				if !q.shadowed {
					o.fail(r, "conflicting predecessor %d left unwired, yet not shadowed", id)
				}
				o.shadowed++
			}
		}
	}
	o.edges += len(want)
	o.wiredEdges += len(preds)
	o.pending[r.ID] = r
	o.want[r.ID] = want
	o.wired[r.ID] = slices.Clone(preds)
	if r.Flag && o.cfg.Mode == ModeFlag {
		o.lastFlagID = r.ID
	}
}

func (o *barrierOracle) retired(ids []uint64) {
	now := o.now()
	for _, id := range ids {
		r := o.pending[id]
		ready := r.SubmitTime()
		for p := range o.want[id] {
			if _, still := o.pending[p]; still {
				o.fail(r, "retired with oracle predecessor %d pending", p)
			}
			ready = max(ready, o.retiredAt[p])
		}
		if r.ReadyTime() != ready {
			o.fail(r, "ReadyTime %v, last oracle predecessor retired at %v", r.ReadyTime(), ready)
		}
	}
	for _, id := range ids {
		delete(o.pending, id)
		delete(o.wired, id)
		o.retiredAt[id] = now
	}
}

func (o *barrierOracle) RequestsCompleted(ids []uint64, _ sim.Time) { o.retired(ids) }
func (o *barrierOracle) RequestsFailed(ids []uint64, _ sim.Time)    { o.retired(ids) }
func (o *barrierOracle) BatchTorn([]uint64, int, sim.Time)          {}

// flakyJudge fails accesses at random: transients (two in a row exhaust
// MaxRetries 1 and fail the batch) and unreadable sectors under reads (the
// covering requests fail, the rest of the batch is requeued).
type flakyJudge struct{ rng *rand.Rand }

func (j flakyJudge) Judge(write bool, lbn int64, count int, _ func(int64) bool) fault.Outcome {
	switch j.rng.Intn(6) {
	case 0:
		return fault.Outcome{Kind: fault.Transient}
	case 1:
		if !write {
			return fault.Outcome{Kind: fault.BadSector, Sector: lbn + int64(j.rng.Intn(count))}
		}
	}
	return fault.Outcome{}
}

// everyConfig returns the eight mode × semantics × NR configurations, each
// with a retry budget of one, so that two transients in a row fail a batch.
func everyConfig() []Config {
	cfgs := []Config{{Mode: ModeIgnore}, {Mode: ModeChains}}
	for _, sem := range []FlagSemantics{SemFull, SemBack, SemPart} {
		cfgs = append(cfgs, Config{Mode: ModeFlag, Sem: sem}, Config{Mode: ModeFlag, Sem: sem, NR: true})
	}
	for i := range cfgs {
		cfgs[i].MaxRetries = 1
	}
	return cfgs
}

func configName(cfg Config) string {
	return fmt.Sprintf("mode%d-%v-nr%v", cfg.Mode, cfg.Sem, cfg.NR)
}

// crowdedStream submits 300 random requests from one process and runs the
// engine until it stops: writes and reads, a quarter flagged (reads too),
// naming pending, completed and never-issued IDs, mostly in one crowded
// 600-sector region so ranges overlap, sometimes anywhere on the disk and
// sometimes right behind the previous request, so that batches form.
func crowdedStream(eng *sim.Engine, dsk *disk.Disk, drv *Driver, rng *rand.Rand) {
	var issued []uint64
	var next int64 // sector after the previous request
	eng.Spawn("submitter", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			count := 1 + rng.Intn(40)
			lbn := rng.Int63n(600)
			switch rng.Intn(5) {
			case 0:
				lbn = rng.Int63n(dsk.Sectors() - 40)
			case 1, 2:
				lbn = next
			}
			next = lbn + int64(count)
			r := &Request{Op: disk.Write, LBN: lbn, Count: count, Flag: rng.Intn(4) == 0}
			if rng.Intn(3) == 0 {
				r.Op, r.Buf = disk.Read, make([]byte, count*disk.SectorSize)
			} else {
				r.Data = make([]byte, count*disk.SectorSize)
			}
			for n := rng.Intn(4); n > 0 && len(issued) > 0; n-- {
				id := issued[rng.Intn(len(issued))] // pending or long completed
				if rng.Intn(6) == 0 {
					id = drv.nextID + 1 + uint64(rng.Intn(50)) // not issued yet
				}
				r.DependsOn = append(r.DependsOn, id)
			}
			issued = append(issued, drv.Submit(r).ID)
			if rng.Intn(4) == 0 {
				p.Sleep(sim.Duration(rng.Int63n(int64(20 * sim.Millisecond))))
			}
		}
	})
	eng.Run()
}

// TestBarrierIndexMatchesPredecessors is the differential test of the
// indexed pending set and of the reduced barrier graph: under every ordering
// mode, with requests that span index buckets, overlap, carry flags (reads
// too) and name pending, completed and never-issued IDs, and with batches
// failing and splitting underneath, the barrier the driver wires must have
// the oracle's closure and the barrier it enforces must be the oracle's.
func TestBarrierIndexMatchesPredecessors(t *testing.T) {
	for _, cfg := range everyConfig() {
		t.Run(configName(cfg), func(t *testing.T) {
			edges, shadowed, failed := 0, 0, int64(0)
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eng, dsk, drv := newRig(cfg)
				if seed%2 == 0 {
					dsk.SetFaults(flakyJudge{rng}, 0)
				}
				o := newBarrierOracle(drv.Config(), eng.Now)
				drv.SetObserver(o)
				crowdedStream(eng, dsk, drv, rng)
				if o.err != nil {
					t.Fatalf("seed %d: %v", seed, o.err)
				}
				if len(o.pending) != 0 || drv.Busy() {
					t.Fatalf("seed %d: %d requests never retired", seed, len(o.pending))
				}
				if len(drv.pending)+drv.buckets()+drv.nflagged+len(drv.flagLoose) != 0 || drv.flagTail != nil {
					t.Fatalf("seed %d: index not empty at idle: %d pending, %d buckets, %d flagged (%d loose, tail %v)",
						seed, len(drv.pending), drv.buckets(), drv.nflagged, len(drv.flagLoose), drv.flagTail)
				}
				if o.wiredEdges > o.edges {
					t.Fatalf("seed %d: %d edges wired for %d oracle pairs", seed, o.wiredEdges, o.edges)
				}
				edges += o.edges
				shadowed += o.shadowed
				failed += drv.Faults.Errors
			}
			if edges == 0 || failed == 0 {
				t.Fatalf("streams too tame to test anything: %d barrier edges, %d failed requests", edges, failed)
			}
			// Under SemBack/SemFull a write visits the whole pending set and
			// shadows nothing; everywhere else the rule must have fired.
			if shadowed == 0 && (cfg.Mode != ModeFlag || cfg.Sem == SemPart) {
				t.Fatalf("streams too tame to test anything: no conflict left unwired behind a covering write")
			}
		})
	}
}

// TestFlagBarrierEdgesLinear pins the size of the graph, by count: behind N
// pending flagged writes a new request is wired to the newest one only, where
// one edge per (flagged, new) pair would be N²/2 in all.
func TestFlagBarrierEdgesLinear(t *testing.T) {
	const n = 2000
	for name, cfg := range map[string]Config{
		"part-nr":              {Mode: ModeFlag, Sem: SemPart, NR: true},
		"chains-barrier-frees": {Mode: ModeChains},
	} {
		t.Run(name, func(t *testing.T) {
			eng, _, drv := newRig(cfg)
			reqs := make([]*Request, n)
			edges := 0
			for i := range reqs {
				// One per bucket, so no two conflict; the first is in flight.
				reqs[i] = drv.Submit(wreq(int64(i)<<bucketShift, 1, true))
				if w := reqs[i].nwait; w > 2 {
					t.Fatalf("submission %d wired behind %d requests, want at most 2", i, w)
				}
				edges += int(reqs[i].nwait)
			}
			if edges != n-1 || drv.nflagged != n {
				t.Fatalf("%d edges over %d pending flagged writes, want %d (one each but the first)", edges, drv.nflagged, n-1)
			}
			eng.Run()
			for i := 1; i < n; i++ {
				if reqs[i].Done.FiredAt < reqs[i-1].Done.FiredAt || reqs[i].DispatchTime() < reqs[i-1].Done.FiredAt {
					t.Fatalf("flagged write %d passed %d", i, i-1)
				}
			}
		})
	}
}

// TestConflictChainsLinear pins the size of the conflict graph, by count: a
// write that covers a pending request shadows it, so behind N pending writes
// of one block a new write of it is wired to the newest one only, where an
// edge per conflicting pair would be N²/2 in all. Only a covering write
// shadows: a fragment write inside a pending block write, or a read, does not.
func TestConflictChainsLinear(t *testing.T) {
	const n = 2000
	for name, cfg := range map[string]Config{ // SemBack/SemFull writes visit the whole pending set instead
		"ignore": {Mode: ModeIgnore},
		"part":   {Mode: ModeFlag, Sem: SemPart},
		"chains": {Mode: ModeChains},
	} {
		t.Run(name+"/one-block", func(t *testing.T) {
			eng, _, drv := newRig(cfg)
			reqs := make([]*Request, n)
			edges := 0
			for i := range reqs {
				reqs[i] = drv.Submit(wreq(0, 16, false)) // the first is in flight
				edges += int(reqs[i].nwait)
			}
			if edges != n-1 {
				t.Fatalf("%d edges over %d writes of one block, want %d (one each but the first)", edges, n, n-1)
			}
			eng.Run()
			for i := 1; i < n; i++ {
				if reqs[i].DispatchTime() < reqs[i-1].Done.FiredAt {
					t.Fatalf("write %d of the block dispatched before write %d completed", i, i-1)
				}
			}
		})
		t.Run(name+"/cover", func(t *testing.T) {
			_, _, drv := newRig(cfg)
			frags := []*Request{drv.Submit(wreq(0, 2, false)), drv.Submit(wreq(2, 2, false)), drv.Submit(wreq(4, 2, false))}
			blk := drv.Submit(wreq(0, 16, false))
			if blk.nwait != 3 || !frags[0].shadowed || !frags[1].shadowed || !frags[2].shadowed {
				t.Fatalf("block write over 3 pending fragment writes: %d edges, shadowed %v %v %v; want 3 edges, all shadowed",
					blk.nwait, frags[0].shadowed, frags[1].shadowed, frags[2].shadowed)
			}
			if f := drv.Submit(wreq(2, 2, false)); f.nwait != 1 {
				t.Fatalf("fragment write behind a shadowed fragment write and its coverer: %d edges, want 1", f.nwait)
			}
			if blk.shadowed {
				t.Fatal("a fragment write inside a pending block write shadowed it")
			}
			if f := drv.Submit(wreq(8, 2, false)); f.nwait != 1 {
				t.Fatalf("fragment write overlapping only the block write: %d edges, want 1", f.nwait)
			}
		})
		t.Run(name+"/reads", func(t *testing.T) {
			_, _, drv := newRig(cfg)
			rd := drv.Submit(rreq(0, 16))
			if drv.Submit(wreq(0, 16, false)); !rd.shadowed {
				t.Fatal("a pending read covered by a later write is not shadowed")
			}
			if w := drv.Submit(wreq(4, 2, false)); w.nwait != 1 {
				t.Fatalf("write behind a shadowed read and its coverer: %d edges, want 1", w.nwait)
			}
			w := drv.Submit(wreq(100, 2, false))
			drv.Submit(rreq(96, 16))
			if w.shadowed {
				t.Fatal("a read shadowed the pending write it covers")
			}
			if w2 := drv.Submit(wreq(100, 2, false)); w2.nwait != 2 {
				t.Fatalf("write behind a pending write and a read covering it: %d edges, want 2", w2.nwait)
			}
		})
	}
}

// TestOrderingStallsCountsDefinition: the stall counter is defined on what a
// request waits for, not on the edges wired. A write that overlaps the newest
// flagged request is wired behind it once, a conflict edge; it still waits
// for the older flagged request it does not overlap, and counts.
func TestOrderingStallsCountsDefinition(t *testing.T) {
	for name, cfg := range map[string]Config{
		"part-nr": {Mode: ModeFlag, Sem: SemPart, NR: true},
		"chains":  {Mode: ModeChains},
	} {
		t.Run(name, func(t *testing.T) {
			_, _, drv := newRig(cfg)
			stalls := func(r *Request) int64 {
				before := drv.OrderingStalls
				drv.Submit(r)
				return drv.OrderingStalls - before
			}
			if n := stalls(wreq(100, 4, true)); n != 0 {
				t.Fatalf("first request counted %d stalls", n)
			}
			if n := stalls(wreq(100, 4, false)); n != 0 {
				t.Fatalf("write overlapping the only pending flagged request counted %d stalls: a conflict, not an ordering stall", n)
			}
			if n := stalls(wreq(200, 4, true)); n != 1 {
				t.Fatalf("flagged write behind a flagged write elsewhere counted %d stalls, want 1", n)
			}
			c := wreq(202, 4, false)
			if n := stalls(c); n != 1 || c.nwait != 1 {
				t.Fatalf("write overlapping only the newer of two flagged requests: %d stalls over %d edges, want 1 over 1", n, c.nwait)
			}
			if n := stalls(rreq(300, 4)); n != 0 {
				t.Fatalf("read that passes the barrier counted %d stalls", n)
			}
		})
	}
}
