package dev

import (
	"bytes"
	"testing"

	"metaupdate/internal/disk"
	"metaupdate/internal/sim"
)

func newRig(cfg Config) (*sim.Engine, *disk.Disk, *Driver) {
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	return eng, dsk, New(eng, dsk, cfg)
}

func wreq(lbn int64, count int, flag bool, deps ...uint64) *Request {
	return &Request{
		Op:        disk.Write,
		LBN:       lbn,
		Count:     count,
		Data:      bytes.Repeat([]byte{byte(lbn)}, count*disk.SectorSize),
		Flag:      flag,
		DependsOn: deps,
	}
}

func rreq(lbn int64, count int) *Request {
	return &Request{Op: disk.Read, LBN: lbn, Count: count, Buf: make([]byte, count*disk.SectorSize)}
}

// queued returns the driver's queue, head first.
func queued(drv *Driver) []*Request {
	var q []*Request
	for r := drv.queue.qnext; r != &drv.queue; r = r.qnext {
		q = append(q, r)
	}
	return q
}

// completionOrder submits all requests at t=0 and returns indices in
// completion order.
func completionOrder(t *testing.T, cfg Config, reqs []*Request) []int {
	t.Helper()
	eng, _, drv := newRig(cfg)
	var order []int
	for i, r := range reqs {
		i := i
		drv.Submit(r)
		eng.Spawn("w", func(p *sim.Proc) {
			r.Done.Wait(p)
			order = append(order, i)
		})
	}
	eng.Run()
	if len(order) != len(reqs) {
		t.Fatalf("only %d of %d requests completed", len(order), len(reqs))
	}
	return order
}

func indexOf(order []int, i int) int {
	for p, v := range order {
		if v == i {
			return p
		}
	}
	return -1
}

func TestFIFOWhenIdle(t *testing.T) {
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	r := wreq(100, 2, false)
	drv.Submit(r)
	eng.Run()
	if !r.Done.Fired() {
		t.Fatal("request never completed")
	}
	got := make([]byte, 2*disk.SectorSize)
	dsk.ReadAt(100, got)
	if !bytes.Equal(got, r.Data) {
		t.Fatal("write data not committed to media")
	}
}

func TestReadFillsBuffer(t *testing.T) {
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	want := bytes.Repeat([]byte{0x5A}, disk.SectorSize)
	dsk.Commit(7, want)
	r := rreq(7, 1)
	drv.Submit(r)
	eng.Run()
	if !bytes.Equal(r.Buf, want) {
		t.Fatal("read did not return media contents")
	}
}

func TestCLOOKOrdersBySector(t *testing.T) {
	// Submit far, near, middle while the disk is busy; with Ignore mode the
	// scheduler should sweep them in ascending LBN order.
	eng, _, drv := newRig(Config{Mode: ModeIgnore})
	blocker := wreq(10, 1, false)
	drv.Submit(blocker) // dispatches immediately, keeps disk busy
	far := wreq(50000, 1, false)
	near := wreq(1000, 1, false)
	mid := wreq(20000, 1, false)
	var order []int64
	for _, r := range []*Request{far, near, mid} {
		r := r
		drv.Submit(r)
		eng.Spawn("w", func(p *sim.Proc) {
			r.Done.Wait(p)
			order = append(order, r.LBN)
		})
	}
	eng.Run()
	want := []int64{1000, 20000, 50000}
	for i, lbn := range want {
		if order[i] != lbn {
			t.Fatalf("C-LOOK order %v, want %v", order, want)
		}
	}
}

func TestConcatenationOfSequentialRequests(t *testing.T) {
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	blocker := wreq(90000, 1, false)
	drv.Submit(blocker)
	// Three contiguous writes; they should dispatch as one disk command.
	for i := 0; i < 3; i++ {
		drv.Submit(wreq(int64(100+2*i), 2, false))
	}
	eng.Run()
	// blocker + 1 concatenated batch = 2 disk commands
	if dsk.Writes != 2 {
		t.Errorf("disk saw %d write commands, want 2 (concatenation)", dsk.Writes)
	}
	if got := drv.Trace.Requests(); got != 4 {
		t.Errorf("trace has %d requests, want 4", got)
	}
}

func TestConflictingWritesNeverReorder(t *testing.T) {
	// Two writes to the same sectors must complete in submission order even
	// though the second would be closer to the head.
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	drv.Submit(wreq(70000, 1, false)) // park head far away
	first := wreq(100, 2, false)
	second := &Request{Op: disk.Write, LBN: 100, Count: 2,
		Data: bytes.Repeat([]byte{0xEE}, 2*disk.SectorSize)}
	drv.Submit(first)
	drv.Submit(second)
	eng.Run()
	got := make([]byte, 2*disk.SectorSize)
	dsk.ReadAt(100, got)
	if !bytes.Equal(got, second.Data) {
		t.Fatal("conflicting writes reordered: media has first write's data")
	}
}

func TestFlagPartSemantics(t *testing.T) {
	// Part: requests submitted after a flagged request never precede it,
	// but a non-flagged earlier request may drift freely.
	reqs := []*Request{
		wreq(80000, 1, false), // 0: blocker to keep disk busy
		wreq(60000, 1, false), // 1: non-flagged, far
		wreq(50000, 1, true),  // 2: flagged
		wreq(10, 1, false),    // 3: after flag, near head -> must wait for 2
	}
	order := completionOrder(t, Config{Mode: ModeFlag, Sem: SemPart}, reqs)
	if indexOf(order, 3) < indexOf(order, 2) {
		t.Fatalf("Part violated: %v (3 before flagged 2)", order)
	}
	// 1 is free to complete after 3 or before 2 — no assertion.
}

func TestFlagBackSemantics(t *testing.T) {
	// Back: request 3 must wait for the flagged request 2 AND for request 1
	// submitted before the flag.
	reqs := []*Request{
		wreq(80000, 1, false), // 0: blocker
		wreq(60000, 1, false), // 1: before flag
		wreq(50000, 1, true),  // 2: flagged
		wreq(10, 1, false),    // 3: after flag
	}
	order := completionOrder(t, Config{Mode: ModeFlag, Sem: SemBack}, reqs)
	if indexOf(order, 3) < indexOf(order, 1) || indexOf(order, 3) < indexOf(order, 2) {
		t.Fatalf("Back violated: %v", order)
	}
}

func TestFlagBackAllowsFlaggedToPassPrevious(t *testing.T) {
	// Back: the flagged request itself reorders freely with previous
	// non-flagged requests. Flagged near-head request should beat a far
	// non-flagged one.
	reqs := []*Request{
		wreq(80000, 1, false), // 0: blocker
		wreq(60000, 1, false), // 1: far, non-flagged
		wreq(100, 1, true),    // 2: flagged, near... head after blocker is 80001 -> C-LOOK wraps to 100 first anyway
	}
	order := completionOrder(t, Config{Mode: ModeFlag, Sem: SemBack}, reqs)
	if indexOf(order, 2) > indexOf(order, 1) {
		t.Fatalf("Back: flagged request failed to pass previous non-flagged: %v", order)
	}
}

func TestFlagFullBarrier(t *testing.T) {
	// Full: the flagged request waits for ALL previous requests.
	reqs := []*Request{
		wreq(80000, 1, false), // 0: blocker
		wreq(60000, 1, false), // 1: far non-flagged
		wreq(100, 1, true),    // 2: flagged near -> must wait for 1 under Full
		wreq(200, 1, false),   // 3: after flag -> waits for 2
	}
	order := completionOrder(t, Config{Mode: ModeFlag, Sem: SemFull}, reqs)
	if indexOf(order, 2) < indexOf(order, 1) {
		t.Fatalf("Full violated: flagged passed previous request: %v", order)
	}
	if indexOf(order, 3) < indexOf(order, 2) {
		t.Fatalf("Full violated: later request passed barrier: %v", order)
	}
}

func TestNRLetsReadsBypass(t *testing.T) {
	// A read submitted after a flagged write should complete before queued
	// flag-blocked writes when NR is set, and after them when it is not.
	build := func() []*Request {
		return []*Request{
			wreq(80000, 4, false), // 0: blocker
			wreq(50000, 2, true),  // 1: flagged write
			wreq(40000, 2, false), // 2: blocked behind 1 (Part)
			rreq(100, 2),          // 3: read
		}
	}
	withNR := completionOrder(t, Config{Mode: ModeFlag, Sem: SemPart, NR: true}, build())
	if got := indexOf(withNR, 3); got > 1 {
		t.Fatalf("with NR, read finished at position %d of %v", got, withNR)
	}
	withoutNR := completionOrder(t, Config{Mode: ModeFlag, Sem: SemPart}, build())
	if indexOf(withoutNR, 3) < indexOf(withoutNR, 1) {
		t.Fatalf("without NR, read bypassed flagged write: %v", withoutNR)
	}
}

func TestNRConflictingReadStillWaits(t *testing.T) {
	// A read of sectors with a queued write must wait for that write even
	// under NR ("unless the read requests are for locations to be written").
	reqs := []*Request{
		wreq(80000, 4, false), // 0: blocker
		wreq(50000, 2, true),  // 1: flagged write
		wreq(40000, 2, false), // 2: write the read conflicts with
		rreq(40000, 2),        // 3: conflicting read
	}
	order := completionOrder(t, Config{Mode: ModeFlag, Sem: SemPart, NR: true}, reqs)
	if indexOf(order, 3) < indexOf(order, 2) {
		t.Fatalf("conflicting read bypassed pending write: %v", order)
	}
}

func TestChainsDependencies(t *testing.T) {
	eng, _, drv := newRig(Config{Mode: ModeChains})
	blocker := drv.Submit(wreq(80000, 1, false))
	a := drv.Submit(wreq(60000, 1, false))
	b := drv.Submit(wreq(10, 1, false, a.ID)) // near head but depends on a
	var order []uint64
	for _, r := range []*Request{blocker, a, b} {
		r := r
		eng.Spawn("w", func(p *sim.Proc) {
			r.Done.Wait(p)
			order = append(order, r.ID)
		})
	}
	eng.Run()
	ia, ib := -1, -1
	for i, id := range order {
		if id == a.ID {
			ia = i
		}
		if id == b.ID {
			ib = i
		}
	}
	if ib < ia {
		t.Fatalf("chains violated: dependent completed first: %v", order)
	}
}

func TestChainsCompletedDependencySatisfied(t *testing.T) {
	eng, _, drv := newRig(Config{Mode: ModeChains})
	a := drv.Submit(wreq(100, 1, false))
	eng.Run()
	if drv.IsPending(a.ID) {
		t.Fatal("request still pending after Run")
	}
	// Depending on an already-completed request must not block forever.
	b := drv.Submit(wreq(200, 1, false, a.ID))
	eng.Run()
	if !b.Done.Fired() {
		t.Fatal("request blocked on completed dependency")
	}
}

func TestChainsUnrelatedRequestsReorderFreely(t *testing.T) {
	// Unlike the flag schemes, chains lets an unrelated near request pass a
	// "flagged-equivalent" pair.
	eng, _, drv := newRig(Config{Mode: ModeChains})
	blocker := drv.Submit(wreq(80000, 1, false))
	a := drv.Submit(wreq(60000, 1, false))
	b := drv.Submit(wreq(61000, 1, false, a.ID))
	c := drv.Submit(wreq(10, 1, false)) // unrelated, near
	var order []uint64
	for _, r := range []*Request{blocker, a, b, c} {
		r := r
		eng.Spawn("w", func(p *sim.Proc) {
			r.Done.Wait(p)
			order = append(order, r.ID)
		})
	}
	eng.Run()
	if order[0] != blocker.ID || order[1] != c.ID {
		t.Fatalf("unrelated request failed to pass dependency chain: %v", order)
	}
}

func TestWaitIdle(t *testing.T) {
	eng, _, drv := newRig(Config{Mode: ModeIgnore})
	drv.Submit(wreq(100, 1, false))
	drv.Submit(wreq(5000, 1, false))
	var idleAt sim.Time
	eng.Spawn("sync", func(p *sim.Proc) {
		drv.WaitIdle(p)
		idleAt = p.Now()
	})
	eng.Run()
	if idleAt <= 0 {
		t.Fatal("WaitIdle returned immediately despite queued work")
	}
	if drv.Busy() {
		t.Fatal("driver still busy after Run")
	}
}

func TestWaitIdleWhenAlreadyIdle(t *testing.T) {
	eng, _, drv := newRig(Config{Mode: ModeIgnore})
	done := false
	eng.Spawn("sync", func(p *sim.Proc) {
		drv.WaitIdle(p)
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("WaitIdle blocked with empty queue")
	}
}

func TestTraceStats(t *testing.T) {
	eng, _, drv := newRig(Config{Mode: ModeIgnore})
	drv.Submit(wreq(100, 2, false))
	drv.Submit(wreq(50000, 2, false))
	eng.Run()
	tr := &drv.Trace
	if tr.Requests() != 2 {
		t.Fatalf("Requests() = %d", tr.Requests())
	}
	if tr.AvgServiceMS() <= 0 || tr.AvgResponseMS() < tr.AvgServiceMS() {
		t.Errorf("stats inconsistent: service %.2f response %.2f",
			tr.AvgServiceMS(), tr.AvgResponseMS())
	}
	tr.Reset()
	if tr.Requests() != 0 {
		t.Error("Reset did not clear trace")
	}
}

func TestCrashCommitsPrefixOnly(t *testing.T) {
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	r := wreq(100, 8, false)
	drv.Submit(r)
	// Freeze mid-transfer: after positioning plus ~2 sectors.
	acc := drv.batchAccess
	crashAt := drv.batchDispatch + acc.Positioning + 2*acc.PerSector + acc.PerSector/2
	eng.RunUntil(crashAt - 1)
	drv.Crash(crashAt)
	got := make([]byte, 8*disk.SectorSize)
	dsk.ReadAt(100, got)
	nonzero := 0
	for s := 0; s < 8; s++ {
		sector := got[s*disk.SectorSize : (s+1)*disk.SectorSize]
		if !bytes.Equal(sector, bytes.Repeat([]byte{0}, disk.SectorSize)) {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("crash committed %d sectors, want exactly 2", nonzero)
	}
}

func TestCrashBeforePositioningCommitsNothing(t *testing.T) {
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	drv.Submit(wreq(100, 4, false))
	eng.RunUntil(0)
	drv.Crash(drv.batchDispatch + drv.batchAccess.Positioning/2)
	got := make([]byte, 4*disk.SectorSize)
	dsk.ReadAt(100, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("crash during positioning committed data")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, drv := newRig(Config{Mode: ModeIgnore})
	for _, r := range []*Request{
		{Op: disk.Write, LBN: 0, Count: 0},
		{Op: disk.Write, LBN: 0, Count: 2, Data: make([]byte, disk.SectorSize)},
		{Op: disk.Read, LBN: 0, Count: 1, Buf: make([]byte, 10)},
		{Op: disk.Read, LBN: -1, Count: 1, Buf: make([]byte, disk.SectorSize)},
		{Op: disk.Read, LBN: drv.Sectors() - 1, Count: 2, Buf: make([]byte, 2*disk.SectorSize)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", r)
				}
			}()
			drv.Submit(r)
		}()
	}
}

func TestSemanticsString(t *testing.T) {
	if SemFull.String() != "Full" || SemBack.String() != "Back" || SemPart.String() != "Part" {
		t.Error("FlagSemantics strings wrong")
	}
}

// TestRequestEndingAtLastSector: concat looks for the successor of a
// request ending at the disk's last sector one bucket past the disk, which
// the sector table has.
func TestRequestEndingAtLastSector(t *testing.T) {
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	r := drv.Submit(wreq(dsk.Sectors()-8, 8, false))
	eng.Run()
	if !r.Done.Fired() || r.Err != nil {
		t.Fatalf("the last sectors' write: fired %v, err %v", r.Done.Fired(), r.Err)
	}
}
