package dev

import (
	"bytes"
	"testing"

	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// scriptJudge plays back a fixed outcome per judged access, then judges
// everything after the script fault-free. It lets these tests hit exact
// driver states (one transient, one torn write at sector k, ...) without
// chasing a seeded stream.
type scriptJudge struct {
	script []fault.Outcome
	calls  int
}

func (j *scriptJudge) Judge(write bool, lbn int64, count int, remapped func(int64) bool) fault.Outcome {
	j.calls++
	if len(j.script) == 0 {
		return fault.Outcome{}
	}
	o := j.script[0]
	j.script = j.script[1:]
	return o
}

// always judges every access with the same outcome, forever.
type always struct{ o fault.Outcome }

func (j always) Judge(bool, int64, int, func(int64) bool) fault.Outcome { return j.o }

func newFaultRig(cfg Config, j fault.Judge, spares int) (*sim.Engine, *disk.Disk, *Driver) {
	eng, dsk, drv := newRig(cfg)
	dsk.SetFaults(j, spares)
	return eng, dsk, drv
}

func mediaSectors(dsk *disk.Disk, lbn int64, count int) int {
	buf := make([]byte, count*disk.SectorSize)
	dsk.ReadAt(lbn, buf)
	zero := make([]byte, disk.SectorSize)
	n := 0
	for s := 0; s < count; s++ {
		if !bytes.Equal(buf[s*disk.SectorSize:(s+1)*disk.SectorSize], zero) {
			n++
		}
	}
	return n
}

func TestTransientRetryRecovers(t *testing.T) {
	j := &scriptJudge{script: []fault.Outcome{{Kind: fault.Transient}}}
	eng, dsk, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 0)
	r := wreq(100, 4, false)
	drv.Submit(r)
	eng.Run()
	if !r.Done.Fired() || r.Err != nil {
		t.Fatalf("request after one transient: fired=%v err=%v", r.Done.Fired(), r.Err)
	}
	got := make([]byte, 4*disk.SectorSize)
	dsk.ReadAt(100, got)
	if !bytes.Equal(got, r.Data) {
		t.Fatal("retried write did not reach the media")
	}
	if drv.Faults.Transient != 1 || drv.Faults.Retries != 1 || drv.Faults.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 transient / 1 retry / 0 errors", drv.Faults)
	}
}

// TestExhaustedRetriesFailRequest pins the bug class where complete()
// assumed every batch succeeds: a request whose retries run out must still
// leave the pending set, fire Done, and carry ErrIO — not hang the driver
// or report success with data missing from the media.
func TestExhaustedRetriesFailRequest(t *testing.T) {
	eng, dsk, drv := newFaultRig(Config{Mode: ModeIgnore, MaxRetries: 2},
		always{fault.Outcome{Kind: fault.Transient}}, 0)
	r := wreq(100, 4, false)
	drv.Submit(r)
	eng.Run()
	if !r.Done.Fired() {
		t.Fatal("Done never fired for a failed request")
	}
	if r.Err != ErrIO {
		t.Fatalf("Err = %v, want ErrIO", r.Err)
	}
	if drv.IsPending(r.ID) || drv.Busy() {
		t.Fatal("driver still tracks the failed request")
	}
	if n := mediaSectors(dsk, 100, 4); n != 0 {
		t.Fatalf("transient failures committed %d sectors to the media", n)
	}
	// 1 initial attempt + MaxRetries redispatches, every one transient.
	if drv.Faults.Transient != 3 || drv.Faults.Retries != 2 || drv.Faults.Errors != 1 {
		t.Fatalf("stats = %+v, want 3 transient / 2 retries / 1 error", drv.Faults)
	}
}

func TestTornWriteCommitsPrefixThenRewrites(t *testing.T) {
	j := &scriptJudge{script: []fault.Outcome{{Kind: fault.Torn, TornSectors: 2}}}
	eng, dsk, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 0)
	r := wreq(100, 6, false)
	drv.Submit(r)
	eng.Run()
	if r.Err != nil {
		t.Fatalf("Err = %v after a recovered torn write", r.Err)
	}
	got := make([]byte, 6*disk.SectorSize)
	dsk.ReadAt(100, got)
	if !bytes.Equal(got, r.Data) {
		t.Fatal("rewrite after torn write did not complete the data")
	}
	if drv.Faults.Torn != 1 || drv.Faults.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 torn / 1 retry", drv.Faults)
	}
}

// TestCrashDuringBackoffCommitsNothingFurther pins the crash/retry
// interaction: a crash that lands between a torn attempt and its scheduled
// redispatch must freeze the media at exactly the torn prefix — the
// elapsed-time prefix math only applies while a transfer is in progress.
func TestCrashDuringBackoffCommitsNothingFurther(t *testing.T) {
	j := &scriptJudge{script: []fault.Outcome{{Kind: fault.Torn, TornSectors: 2}}}
	eng, dsk, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 0)
	drv.Submit(wreq(100, 6, false))
	// Run exactly through the torn attempt's completion; the driver is now
	// waiting out the backoff with the redispatch scheduled.
	attemptEnd := drv.batchDispatch + drv.batchAccess.Service
	eng.RunUntil(attemptEnd)
	if drv.batchState != batchBackoff {
		t.Fatalf("batchState = %d after torn attempt, want backoff", drv.batchState)
	}
	drv.Crash(attemptEnd + DefaultRetryBackoff/2)
	if n := mediaSectors(dsk, 100, 6); n != 2 {
		t.Fatalf("media has %d sectors after crash in backoff, want exactly the torn prefix (2)", n)
	}
}

// TestFailedPredecessorUnblocksSuccessor: chains mode must not let a failed
// request strand its dependents — its data never reached the media, so it
// constrains nothing.
func TestFailedPredecessorUnblocksSuccessor(t *testing.T) {
	// 3 judged accesses for a (initial + 2 retries), all transient; then
	// clean for b.
	j := &scriptJudge{script: []fault.Outcome{
		{Kind: fault.Transient}, {Kind: fault.Transient}, {Kind: fault.Transient},
	}}
	eng, dsk, drv := newFaultRig(Config{Mode: ModeChains, MaxRetries: 2}, j, 0)
	a := drv.Submit(wreq(100, 2, false))
	b := drv.Submit(wreq(200, 2, false, a.ID))
	eng.Run()
	if a.Err != ErrIO {
		t.Fatalf("a.Err = %v, want ErrIO", a.Err)
	}
	if !b.Done.Fired() || b.Err != nil {
		t.Fatalf("successor of failed request: fired=%v err=%v", b.Done.Fired(), b.Err)
	}
	got := make([]byte, 2*disk.SectorSize)
	dsk.ReadAt(200, got)
	if !bytes.Equal(got, b.Data) {
		t.Fatal("successor's data not on media")
	}
}

// TestNoSuccessorUnblockDuringRetries: while a batch is being retried its
// requests are unresolved — dependents must stay blocked until the final
// outcome, not dispatch between attempts.
func TestNoSuccessorUnblockDuringRetries(t *testing.T) {
	j := &scriptJudge{script: []fault.Outcome{{Kind: fault.Transient}}}
	eng, _, drv := newFaultRig(Config{Mode: ModeChains}, j, 0)
	a := drv.Submit(wreq(100, 2, false))
	b := drv.Submit(wreq(10, 1, false, a.ID)) // nearer the head than a
	var order []uint64
	for _, r := range []*Request{a, b} {
		r := r
		eng.Spawn("w", func(p *sim.Proc) {
			r.Done.Wait(p)
			order = append(order, r.ID)
		})
	}
	attemptEnd := drv.batchDispatch + drv.batchAccess.Service
	eng.RunUntil(attemptEnd)
	if drv.batchState != batchBackoff {
		t.Fatalf("batchState = %d, want backoff", drv.batchState)
	}
	if b.Done.Fired() || !drv.IsPending(a.ID) {
		t.Fatal("successor resolved while predecessor was mid-retry")
	}
	eng.Run()
	if len(order) != 2 || order[0] != a.ID {
		t.Fatalf("completion order %v, want predecessor %d first", order, a.ID)
	}
}

func TestBadSectorWriteRemapsAndSucceeds(t *testing.T) {
	j := &scriptJudge{script: []fault.Outcome{
		{Kind: fault.BadSector, Sector: 102, TornSectors: 2},
	}}
	eng, dsk, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 4)
	r := wreq(100, 6, false)
	drv.Submit(r)
	eng.Run()
	if r.Err != nil {
		t.Fatalf("Err = %v after a remapped bad sector", r.Err)
	}
	if !dsk.IsRemapped(102) {
		t.Fatal("sector 102 not remapped")
	}
	got := make([]byte, 6*disk.SectorSize)
	dsk.ReadAt(100, got)
	if !bytes.Equal(got, r.Data) {
		t.Fatal("data incomplete after remap + rewrite")
	}
	if drv.Faults.BadSectors != 1 || drv.Faults.Remaps != 1 || drv.Faults.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 bad sector / 1 remap / 0 errors", drv.Faults)
	}
}

func TestBadSectorWriteSparePoolExhaustedFails(t *testing.T) {
	// A one-sector spare pool: the first bad sector remaps and recovers,
	// the second finds the pool empty and the write must fail for real.
	j := &scriptJudge{script: []fault.Outcome{
		{Kind: fault.BadSector, Sector: 102, TornSectors: 2}, // r1, remapped
		{}, // r1 retry, clean
		{Kind: fault.BadSector, Sector: 301, TornSectors: 1}, // r2, pool empty
	}}
	eng, _, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 1)
	r1 := wreq(100, 6, false)
	drv.Submit(r1)
	eng.Run()
	if r1.Err != nil {
		t.Fatalf("first bad sector should remap and recover, got Err = %v", r1.Err)
	}
	r2 := wreq(300, 4, false)
	drv.Submit(r2)
	eng.Run()
	if r2.Err != ErrBadSector {
		t.Fatalf("Err = %v, want ErrBadSector with the spare pool exhausted", r2.Err)
	}
	if !r2.Done.Fired() || drv.Busy() {
		t.Fatal("failed request left the driver busy")
	}
	if drv.Faults.Remaps != 1 || drv.Faults.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 remap / 1 error", drv.Faults)
	}
}

// TestBadSectorReadFailsOnlyCoveringRequests: a concatenated read batch that
// hits a permanently bad sector fails just the requests covering it; the
// rest of the batch goes back to the queue and completes normally.
func TestBadSectorReadFailsOnlyCoveringRequests(t *testing.T) {
	// Call 1: the blocker's write, clean. Call 2: the concatenated read
	// batch, bad sector at 101. Call 3+: the requeued survivor, clean.
	j := &scriptJudge{script: []fault.Outcome{
		{}, {Kind: fault.BadSector, Sector: 101},
	}}
	eng, _, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 0)
	drv.Submit(wreq(80000, 1, false)) // keep the disk busy so the reads concat
	r1 := drv.Submit(rreq(100, 1))
	r2 := drv.Submit(rreq(101, 1))
	eng.Run()
	if r2.Err != ErrBadSector {
		t.Fatalf("covering read Err = %v, want ErrBadSector", r2.Err)
	}
	if r1.Err != nil || !r1.Done.Fired() {
		t.Fatalf("innocent read in the same batch: fired=%v err=%v", r1.Done.Fired(), r1.Err)
	}
	if drv.Busy() {
		t.Fatal("driver busy after split read batch drained")
	}
}

// TestPooledRequestCleanAfterFailedUse pins pool hygiene: a Request that
// completed with an error and was Released must come back from AllocRequest
// as a blank request (no stale Err, no stale barrier links) and be usable
// for a clean access.
func TestPooledRequestCleanAfterFailedUse(t *testing.T) {
	eng, dsk, drv := newFaultRig(Config{Mode: ModeIgnore, MaxRetries: 1},
		&scriptJudge{script: []fault.Outcome{
			{Kind: fault.Transient}, {Kind: fault.Transient},
		}}, 0)
	r := drv.AllocRequest()
	*r = Request{Op: disk.Write, LBN: 100, Count: 2, Done: r.Done,
		Data: bytes.Repeat([]byte{0xAB}, 2*disk.SectorSize)}
	drv.Submit(r)
	eng.Run()
	if r.Err != ErrIO {
		t.Fatalf("setup: Err = %v, want ErrIO", r.Err)
	}
	drv.Release(r)
	r2 := drv.AllocRequest()
	if r2 != r {
		t.Fatal("pool did not return the released request (LIFO)")
	}
	if r2.Err != nil || r2.Count != 0 || len(r2.blocks) != 0 {
		t.Fatalf("reused request not blank: err=%v count=%d blocks=%d",
			r2.Err, r2.Count, len(r2.blocks))
	}
	*r2 = Request{Op: disk.Write, LBN: 300, Count: 1, Done: r2.Done,
		Data: bytes.Repeat([]byte{0xCD}, disk.SectorSize)}
	drv.Submit(r2)
	eng.Run()
	if r2.Err != nil {
		t.Fatalf("clean reuse completed with Err = %v", r2.Err)
	}
	got := make([]byte, disk.SectorSize)
	dsk.ReadAt(300, got)
	if !bytes.Equal(got, r2.Data) {
		t.Fatal("reused request's data not on media")
	}
}

// TestConcatPrefersEarliestSubmission: of two eligible reads starting at the
// sector where a batch ends, the one submitted first joins it — by ID, not by
// queue position, which stops being submission order once a split read batch
// puts its survivors back at the tail.
func TestConcatPrefersEarliestSubmission(t *testing.T) {
	// Call 1: the blocker, clean. Call 2: the batch a+b+c, bad sector under a.
	j := &scriptJudge{script: []fault.Outcome{
		{}, {Kind: fault.BadSector, Sector: 201},
	}}
	eng, _, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 0)
	drv.Submit(wreq(100, 1, false)) // keeps the disk busy while the reads queue
	a := drv.Submit(rreq(200, 4))
	b := drv.Submit(rreq(204, 4))
	c := drv.Submit(rreq(208, 4))
	late := drv.Submit(rreq(208, 4)) // same sectors as c, submitted after it
	eng.RunWhile(func() bool { return !a.Done.Fired() })
	if a.Err != ErrBadSector || b.Done.Fired() || c.Done.Fired() {
		t.Fatalf("setup: a.Err = %v, b fired %v, c fired %v; want a failed and b, c requeued", a.Err, b.Done.Fired(), c.Done.Fired())
	}
	if q := queued(drv); len(q) != 1 || len(drv.inflight) != 2 ||
		q[0] != late || drv.inflight[0] != b || drv.inflight[1] != c {
		t.Fatalf("after the split: queue %d, in flight %d; want b+c (IDs %d, %d) redispatched and %d left queued",
			len(q), len(drv.inflight), b.ID, c.ID, late.ID)
	}
	eng.Run()
	if b.Err != nil || c.Err != nil || late.Err != nil || late.DispatchTime() <= c.DispatchTime() {
		t.Fatalf("errs %v %v %v; c dispatched at %v, the later read at %v", b.Err, c.Err, late.Err, c.DispatchTime(), late.DispatchTime())
	}
}
