package dev

import (
	"testing"

	"metaupdate/internal/disk"
)

// TestAllocFreeSubmitNoConflict pins the cost of a request that conflicts
// with nothing: with a thousand other requests pending, a pooled read's
// whole life — Submit, barrier computation, indexing, dispatch, completion,
// retirement — allocates nothing. In particular the sector index recycles
// its bucket slices: every read here lands in a bucket no pending request
// touches, so each Submit makes a bucket and each retirement empties one.
func TestAllocFreeSubmitNoConflict(t *testing.T) {
	const window = 1000
	eng, dsk, drv := newRig(Config{Mode: ModeIgnore})
	buf := make([]byte, disk.SectorSize)
	ring := make([]*Request, 0, window+1)
	var lbn int64
	var head *Request
	headPending := func() bool { return !head.Done.Fired() }
	submit := func() {
		r := drv.AllocRequest()
		r.Op, r.LBN, r.Count, r.Buf = disk.Read, lbn, 1, buf
		lbn = (lbn + 4<<bucketShift) % (dsk.Sectors() - 1)
		ring = append(ring, drv.Submit(r))
	}
	cycle := func() {
		submit()
		head = ring[0]
		eng.RunWhile(headPending)
		ring = ring[:copy(ring, ring[1:])]
		drv.Release(head)
	}
	for len(ring) < window {
		submit()
	}
	for i := 0; i < 3*window; i++ { // pools, scratch and maps reach their steady size
		cycle()
	}
	drv.Trace.Stats = make([]Stat, 0, 4*window) // the trace grows by design; give it room
	if n := testing.AllocsPerRun(2*window, cycle); n != 0 {
		t.Errorf("pooled read with %d requests pending: %.2f allocs per Submit→completion, want 0", window, n)
	}
	if len(drv.pending) != window || len(drv.bySector) != window {
		t.Fatalf("pending set drifted: %d requests in %d buckets, want %d in %d",
			len(drv.pending), len(drv.bySector), window, window)
	}
}
