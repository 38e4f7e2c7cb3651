package dev

import (
	"testing"
	"unsafe"

	"metaupdate/internal/disk"
)

// lifeAllocs keeps `window` one-sector requests pending and measures the
// allocations of one more whole life in steady state: fill a request,
// Submit it (barrier, indexing), dispatch, complete and retire the oldest
// pending one. Request i starts in sector bucket 4*(i%buckets), modulo the
// disk, so with buckets > window each pending request has a bucket of its
// own, and with fewer each write is wired behind the newest pending one in
// its bucket, which covers the older ones. A pooled life takes its request
// from AllocRequest and ends in Release; a plain one is a fresh &Request{}.
func lifeAllocs(t *testing.T, cfg Config, window, buckets int, pooled bool, fill func(*Request)) float64 {
	t.Helper()
	eng, dsk, drv := newRig(cfg)
	ring := make([]*Request, 0, window+1)
	var i int
	var head *Request
	headPending := func() bool { return !head.Done.Fired() }
	submit := func() {
		var r *Request
		if pooled {
			r = drv.AllocRequest()
		} else {
			r = &Request{}
		}
		r.LBN, r.Count = int64(i%buckets)*4<<bucketShift%(dsk.Sectors()-1), 1
		i++
		fill(r)
		ring = append(ring, drv.Submit(r))
	}
	cycle := func() {
		submit()
		head = ring[0]
		eng.RunWhile(headPending)
		ring = ring[:copy(ring, ring[1:])]
		if pooled {
			drv.Release(head)
		}
	}
	for len(ring) < window {
		submit()
	}
	for range 3 * window { // pools, scratch and maps reach their steady size
		cycle()
	}
	allocs := testing.AllocsPerRun(2*window, cycle)
	if want := min(window, buckets); len(drv.pending) != window || drv.buckets() != want {
		t.Fatalf("pending set drifted: %d requests in %d buckets, want %d in %d",
			len(drv.pending), drv.buckets(), window, want)
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
	n := lifeAllocs(t, Config{Mode: ModeIgnore}, window, 4*window, true, func(r *Request) {
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
	n := lifeAllocs(t, Config{Mode: ModeFlag, Sem: SemPart, NR: true}, window, 4*window, true, func(r *Request) {
		r.Op, r.Data, r.Flag = disk.Write, data, true
	})
	if n != 0 {
		t.Errorf("pooled flagged write behind %d pending flagged writes: %.2f allocs per Submit→completion, want 0", window, n)
	}
}

// TestAllocFreeSubmitRewritesOneBlock pins the cost of a hot block: with a
// thousand writes of one sector pending, one more pooled write of it is wired
// behind the newest of them only — that write covers, and so stands for, the
// others — and its whole life allocates nothing.
func TestAllocFreeSubmitRewritesOneBlock(t *testing.T) {
	const window = 1000
	data := make([]byte, disk.SectorSize)
	var prev *Request
	wide := 0
	n := lifeAllocs(t, Config{Mode: ModeIgnore}, window, 1, true, func(r *Request) {
		if prev != nil && prev.ID > 1 && prev.nwait != 1 { // the first went straight to the disk
			wide++
		}
		r.Op, r.Data, prev = disk.Write, data, r
	})
	if n != 0 {
		t.Errorf("pooled write behind %d pending writes of its block: %.2f allocs per Submit→completion, want 0", window, n)
	}
	if wide != 0 {
		t.Errorf("%d writes of a hot block were wired behind other than one pending write", wide)
	}
}

// TestAllocFreeRequestSizeClass pins Request in the 288-byte allocation size
// class: one more field moves every request into the 320-byte class.
func TestAllocFreeRequestSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 288 {
		t.Errorf("Request is %d bytes, past the 288-byte size class", n)
	}
}

// TestPlainWriteAllocatesOnlyItself pins the cost of a request from outside
// the pool: a fresh &Request{} write, wired behind the pending write to its
// sector and with the next one wired behind it, costs exactly one
// allocation per life — the Request. Its completion is embedded, its
// successor list is storage a retired request handed back, and the trace
// keeps sums, not a record.
func TestPlainWriteAllocatesOnlyItself(t *testing.T) {
	const window = 1000
	data := make([]byte, disk.SectorSize)
	n := lifeAllocs(t, Config{Mode: ModeIgnore}, window, window/2, false, func(r *Request) {
		r.Op, r.Data = disk.Write, data
	})
	if n != 1 {
		t.Errorf("plain write behind a pending write to its sector: %.2f allocs per Submit→completion, want 1", n)
	}
}

// TestReleaseAtLastReference: a pooled request goes back to the pool when
// its last reference is dropped, not before. A reference may be dropped
// while the request is in flight; the last one only after it completed.
func TestReleaseAtLastReference(t *testing.T) {
	eng, _, drv := newRig(Config{Mode: ModeIgnore})
	r := drv.AllocRequest()
	r.Op, r.LBN, r.Count, r.Data = disk.Write, 0, 1, make([]byte, disk.SectorSize)
	drv.Submit(r.Ref().Ref())
	drv.Release(r) // one reader leaves before completion
	eng.Run()
	drv.Release(r)
	if len(drv.free) != 0 {
		t.Fatal("a request with a reference left went back to the pool")
	}
	if r.ID == 0 || !r.Done.Fired() {
		t.Fatal("a referenced request was recycled")
	}
	drv.Release(r)
	if len(drv.free) != 1 || drv.AllocRequest() != r {
		t.Fatal("the last Release did not recycle the request")
	}
}
