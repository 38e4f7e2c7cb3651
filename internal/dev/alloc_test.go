package dev

import (
	"testing"

	"metaupdate/internal/disk"
)

// pooledLifeAllocs keeps `window` pooled one-sector requests pending, each in
// a sector bucket of its own, and measures the allocations of one more whole
// life in steady state: AllocRequest, fill, Submit (barrier, indexing), the
// oldest pending request's dispatch, completion and retirement, Release.
func pooledLifeAllocs(t *testing.T, cfg Config, window int, fill func(*Request)) float64 {
	t.Helper()
	eng, dsk, drv := newRig(cfg)
	ring := make([]*Request, 0, window+1)
	var lbn int64
	var head *Request
	headPending := func() bool { return !head.Done.Fired() }
	submit := func() {
		r := drv.AllocRequest()
		r.LBN, r.Count = lbn, 1
		fill(r)
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
	allocs := testing.AllocsPerRun(2*window, cycle)
	if len(drv.pending) != window || len(drv.bySector) != window {
		t.Fatalf("pending set drifted: %d requests in %d buckets, want %d in %d",
			len(drv.pending), len(drv.bySector), window, window)
	}
	return allocs
}

// TestAllocFreeSubmitNoConflict pins the cost of a request that conflicts
// with nothing: with a thousand other requests pending, a pooled read's
// whole life — Submit, barrier computation, indexing, dispatch, completion,
// retirement — allocates nothing. In particular the sector index recycles
// its bucket slices: every read here lands in a bucket no pending request
// touches, so each Submit makes a bucket and each retirement empties one.
func TestAllocFreeSubmitNoConflict(t *testing.T) {
	const window = 1000
	buf := make([]byte, disk.SectorSize)
	n := pooledLifeAllocs(t, Config{Mode: ModeIgnore}, window, func(r *Request) {
		r.Op, r.Buf = disk.Read, buf
	})
	if n != 0 {
		t.Errorf("pooled read with %d requests pending: %.2f allocs per Submit→completion, want 0", window, n)
	}
}

// TestAllocFreeSubmitBehindFlagBarrier pins the cost of the flag barrier:
// with a thousand flagged writes pending, one more pooled flagged write —
// which waits for every one of them — is wired, indexed, dispatched in its
// turn and retired without allocating. One edge to the newest of them stands
// for the thousand.
func TestAllocFreeSubmitBehindFlagBarrier(t *testing.T) {
	const window = 1000
	data := make([]byte, disk.SectorSize)
	n := pooledLifeAllocs(t, Config{Mode: ModeFlag, Sem: SemPart, NR: true}, window, func(r *Request) {
		r.Op, r.Data, r.Flag = disk.Write, data, true
	})
	if n != 0 {
		t.Errorf("pooled flagged write behind %d pending flagged writes: %.2f allocs per Submit→completion, want 0", window, n)
	}
}
