package cache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/sim"
)

// The storage pool is one per process: what one cache releases serves the
// next cache, on any engine and any goroutine.

// modifyInFlight maps n 8-fragment buffers on c, issues a -CB write of
// each and modifies every buffer while its write is in flight, then lets
// the writes land and drops the buffers, which returns their storage and
// the copies to the pool. It returns the mallocs the modifies took.
func modifyInFlight(p *sim.Proc, c *Cache, drv *dev.Driver, n int) uint64 {
	bufs := make([]*Buf, n)
	reqs := make([]*dev.Request, n)
	for i := range bufs {
		bufs[i] = c.Getblk(p, int64(8*(i+1)), 8).Hold()
		reqs[i] = issue(p, c, bufs[i], 1)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range bufs {
		c.PrepareModify(p, b)
		b.Data[0] = 2
	}
	runtime.ReadMemStats(&m1)
	for i, r := range reqs {
		r.Done.Wait(p)
		drv.Release(r)
		bufs[i].Unhold()
		c.Drop(bufs[i].Frag)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestAllocFreeAcrossCaches: the -CB copies a cache on one engine took, and
// the buffers it dropped, serve a cache on a second engine: its modifies in
// flight take their copies from the pool and allocate nothing. With a pool
// per cache the second cache's copies would all be fresh.
func TestAllocFreeAcrossCaches(t *testing.T) {
	const n = 2 * slabPieces
	DrainStorage()
	engA, _, drvA, a := newRig(Config{CB: true})
	var first, second uint64
	runIn(engA, func(p *sim.Proc) { first = modifyInFlight(p, a, drvA, n) })
	if first == 0 {
		t.Fatal("setup: the first cache's copies came from a drained pool without allocating")
	}
	engB, _, drvB, b := newRig(Config{CB: true})
	runIn(engB, func(p *sim.Proc) { second = modifyInFlight(p, b, drvB, n) })
	if second != 0 {
		t.Errorf("%d modifies in flight on a second cache took %d mallocs, want 0: the first cache's copies did not serve them", n, second)
	}
}

// TestWriteAfterReleasePanicsAcrossCaches: storage released by one cache
// and written through a slice kept past the release panics when another
// cache takes it.
func TestWriteAfterReleasePanicsAcrossCaches(t *testing.T) {
	engA, _, _, a := newRig(Config{})
	var kept []byte
	runIn(engA, func(p *sim.Proc) {
		kept = a.Getblk(p, 8, 2).Data
		a.Drop(8)
	})
	kept[100] = 1
	engB, _, _, b := newRig(Config{})
	runIn(engB, func(p *sim.Proc) {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "written after its release") {
				t.Errorf("another cache reusing overwritten storage: recovered %q, want the use-after-release panic", msg)
			}
		}()
		b.Getblk(p, 16, 2)
	})
}

// TestSlabPiecesAreDisjoint: an empty class carves slabPieces slices from
// one allocation. Each is capped at its own length, so an append cannot run
// into its neighbour, and a write to one shows in no other.
func TestSlabPiecesAreDisjoint(t *testing.T) {
	for nfrags := 1; nfrags <= maxFrags; nfrags++ {
		DrainStorage()
		pieces := make([][]byte, slabPieces)
		for i := range pieces {
			pieces[i] = getStorage(nfrags, true)
		}
		if got := Pooled(nfrags); got != 0 {
			t.Errorf("%d-fragment class: %d slices pooled after %d gets from a drained pool, want one slab's worth taken", nfrags, got, slabPieces)
		}
		for i, s := range pieces {
			if len(s) != nfrags*FragSize || cap(s) != len(s) {
				t.Fatalf("%d-fragment piece %d: len %d cap %d, want both %d", nfrags, i, len(s), cap(s), nfrags*FragSize)
			}
			for j := range s {
				s[j] = byte(i + 1)
			}
		}
		for i, s := range pieces {
			for j, v := range s {
				if v != byte(i+1) {
					t.Fatalf("%d-fragment piece %d holds %d at byte %d, written by piece %d", nfrags, i, v, j, v-1)
				}
			}
			putStorage(s)
		}
	}
}

// TestStoragePoolConcurrentCaches: caches on goroutines of their own, as
// the harness runs cells, take and release storage at once, and then all
// close at once with buffers still mapped, dirty and clean, as machines
// shutting down together do. Each checks that its buffers keep the bytes
// it wrote and that Close unmapped them all; under -race an unguarded pool
// is a reported race.
func TestStoragePoolConcurrentCaches(t *testing.T) {
	const workers, rounds = 4, 200
	var wg, mapped sync.WaitGroup
	shutdown := make(chan struct{})
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		mapped.Add(1)
		go func() {
			defer wg.Done()
			eng, _, drv, c := newRig(Config{CB: true, MaxBytes: 4 * 8 * FragSize})
			runIn(eng, func(p *sim.Proc) {
				for i := 0; i < rounds && errs[w] == nil; i++ {
					frag := int64(8 * (i % 6))
					b := c.Getblk(p, frag, 1+i%maxFrags).Hold()
					v := byte(w*rounds + i)
					r := issue(p, c, b, v)
					c.PrepareModify(p, b)
					b.Data[1] = v
					r.Done.Wait(p)
					drv.Release(r)
					if b.Data[0] != v || b.Data[1] != v {
						errs[w] = fmt.Errorf("worker %d round %d: buffer holds %d,%d, want %d", w, i, b.Data[0], b.Data[1], v)
					}
					b.Unhold()
					c.Drop(frag)
				}
				for i := 1; i <= maxFrags; i++ {
					b := c.Getblk(p, int64(64*i), i)
					if i%2 == 0 {
						c.Bdwrite(b)
					}
				}
			})
			mapped.Done()
			<-shutdown
			c.Close()
			if errs[w] == nil && c.Bytes() != 0 {
				errs[w] = fmt.Errorf("worker %d: %d bytes still mapped after Close", w, c.Bytes())
			}
		}()
	}
	mapped.Wait()
	close(shutdown)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
