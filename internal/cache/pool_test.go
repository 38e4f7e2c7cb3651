package cache

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/sim"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// fn allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, fn func()) float64 {
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestAllocFreeGetblkDrop: a block allocated and freed again — Getblk, then
// Drop — takes its storage from the pool and gives it back, so in steady
// state the cycle allocates the buffer's header and none of its 8 KB.
func TestAllocFreeGetblkDrop(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	var per float64
	runIn(eng, func(p *sim.Proc) {
		per = bytesPerRun(200, func() {
			c.Getblk(p, 64, 8)
			c.Drop(64)
		})
	})
	if per >= FragSize {
		t.Errorf("Getblk→Drop of an 8-fragment block: %.0f bytes per cycle, want the header alone (< %d)", per, FragSize)
	}
}

// TestAllocFreeBawriteCycle: a write's whole life — Bawrite, submission,
// completion, the caller's Release — allocates nothing once the pools are
// warm, with and without -CB: the request comes from the driver's pool,
// its bookkeeping and completion from the cache's, and a -CB snapshot from
// the storage pool.
func TestAllocFreeBawriteCycle(t *testing.T) {
	for _, cb := range []bool{false, true} {
		t.Run(fmt.Sprintf("CB=%v", cb), func(t *testing.T) {
			eng, _, drv, c := newRig(Config{CB: cb})
			var allocs float64
			runIn(eng, func(p *sim.Proc) {
				b := c.Getblk(p, 64, 8).Hold()
				cycle := func() {
					c.Bdwrite(b)
					r := c.Bawrite(p, b)
					r.Done.Wait(p)
					drv.Release(r)
				}
				cycle()
				allocs = testing.AllocsPerRun(100, cycle)
				b.Unhold()
			})
			if allocs != 0 {
				t.Errorf("Bawrite→completion: %.2f allocs per write, want 0", allocs)
			}
		})
	}
}

// TestReleasedBufHasNoData: once a buffer's last reader is done its storage
// is back in the pool and Data is nil, so a read through a *Buf kept past
// that point panics instead of returning another buffer's bytes. A held
// buffer keeps its storage when dropped, until the hold ends.
func TestReleasedBufHasNoData(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 1)
		b.Data[0] = 7
		b.Hold()
		c.Drop(8)
		if b.Data == nil || b.Data[0] != 7 {
			t.Fatal("a held buffer lost its storage when dropped")
		}
		b.Unhold()
		if b.Data != nil {
			t.Fatal("a dropped buffer kept its storage after its last hold")
		}
		defer func() {
			if recover() == nil {
				t.Error("a read through a released buffer did not panic")
			}
		}()
		_ = b.Data[0]
	})
}

// TestWriteAfterReleasePanics: in a test binary released storage is
// poisoned, and reusing storage whose poison was overwritten — here through
// a slice of Data kept across the Drop that released it — panics.
func TestWriteAfterReleasePanics(t *testing.T) {
	if !poisonCheck {
		t.Fatal("the use-after-release check is off in a test binary")
	}
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		kept := c.Getblk(p, 8, 2).Data
		c.Drop(8)
		if !bytes.Equal(kept, poison[:len(kept)]) {
			t.Fatal("released storage is not poisoned")
		}
		kept[100] = 1
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "written after its release") {
				t.Errorf("reusing overwritten storage: recovered %q, want the use-after-release panic", msg)
			}
		}()
		c.Getblk(p, 16, 2)
	})
}

// prepHooks runs prepare as each write is about to be built.
type prepHooks struct {
	NopHooks
	prepare func(b *Buf)
}

func (h prepHooks) PrepareWrite(b *Buf) { h.prepare(b) }

// TestMakeRoomSkipsMembersGoneMeanwhile: makeRoom collects its write-behind
// batch, then issues the members one by one, and an issue yields (here the
// -CB copy's CPU time). A member dropped meanwhile, its fragments already
// a new owner's, must not be written: its old bytes would land over the new
// owner's.
func TestMakeRoomSkipsMembersGoneMeanwhile(t *testing.T) {
	eng, dsk, _, c := newRig(Config{CB: true, MaxBytes: 3*8*FragSize + 4*FragSize})
	const a, b, d = 0, 8, 24 // c at 16 fills the cache
	issued := sim.NewCompletion()
	var written []int64
	c.Hooks = prepHooks{prepare: func(buf *Buf) {
		written = append(written, buf.Frag)
		if buf.Frag == a && !issued.Fired() {
			issued.Fire(eng)
		}
	}}
	eng.Spawn("evictor", func(p *sim.Proc) {
		for i, frag := range []int64{a, b, 16} {
			buf := c.Getblk(p, frag, 8)
			buf.Data[0] = byte(i + 1)
			c.Bdwrite(buf)
			p.Sleep(sim.Microsecond)
		}
		c.Getblk(p, d, 8) // a, b and c make the write-behind batch
	})
	eng.Spawn("freer", func(p *sim.Proc) {
		issued.Wait(p) // the evictor is charged for a's snapshot
		c.Drop(b)
		nb := c.Getblk(p, b, 4) // b's first fragments, a new owner's
		nb.Data[0] = 0xCC
		if err := c.Bwrite(p, nb); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	n := 0
	for _, f := range written {
		if f == b {
			n++
		}
	}
	if n != 1 {
		t.Errorf("writes issued for fragments %v: want fragment %d written once, by its new owner", written, b)
	}
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(b), got)
	if got[0] != 0xCC {
		t.Errorf("fragment %d holds %#x on the media, want the new owner's 0xcc", b, got[0])
	}
}

// TestMakeRoomSkipsLentBuffer: a Getblk whose makeRoom waits for its
// write-behind batch has not yet handed its new buffer to its caller.
// Another process's makeRoom meanwhile must not evict that buffer: the
// caller would get one the cache no longer maps, whose storage goes back
// to the pool at the caller's last Unhold while the caller still reads it
// (a growing directory's new chunk, under open-loop load).
func TestMakeRoomSkipsLentBuffer(t *testing.T) {
	eng, _, _, c := newRig(Config{MaxBytes: 2 * 8 * FragSize})
	const a, b, fresh, other = 0, 8, 16, 24
	var got *Buf
	eng.Spawn("grower", func(p *sim.Proc) {
		for _, frag := range []int64{a, b} {
			c.Bdwrite(c.Getblk(p, frag, 8))
		}
		got = c.Getblk(p, fresh, 8).Hold() // waits for a's and b's write-behind
	})
	eng.Spawn("other", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // the grower is waiting by now
		c.Getblk(p, other, 8)
	})
	eng.Run()
	if c.Lookup(fresh) != got {
		t.Fatal("Getblk handed its caller a buffer that another process's eviction unmapped")
	}
	got.Unhold()
}

// TestDropCleanSkipsBufferBeingHandedOut: a Getblk whose makeRoom waits
// for its write-behind batch holds its new, clean buffer until it returns,
// so DropClean (and Close, which shares its walk) meanwhile must not unmap
// it: the caller would write into a buffer the cache no longer maps.
func TestDropCleanSkipsBufferBeingHandedOut(t *testing.T) {
	eng, _, _, c := newRig(Config{MaxBytes: 2 * 8 * FragSize})
	const a, b, fresh = 0, 8, 16
	var got *Buf
	eng.Spawn("grower", func(p *sim.Proc) {
		for _, frag := range []int64{a, b} {
			c.Bdwrite(c.Getblk(p, frag, 8))
		}
		got = c.Getblk(p, fresh, 8).Hold() // waits for a's and b's write-behind
	})
	eng.RunUntil(sim.Microsecond)
	c.DropClean()
	eng.Run()
	if c.Lookup(fresh) != got {
		t.Fatal("Getblk handed its caller a buffer DropClean unmapped")
	}
	got.Unhold()
}

// TestCBPoolWaitSkipsDroppedBuffer: a -CB write waiting for snapshot room
// holds its buffer, so the buffer's storage survives a Drop meanwhile; and
// the write is not issued once the wait ends. Here the dropped fragment's
// new owner is written first by an engine-context issuer (which never
// waits), and the old buffer's bytes must not land over it.
func TestCBPoolWaitSkipsDroppedBuffer(t *testing.T) {
	eng, dsk, _, c := newRig(Config{CB: true, MaxCopyBytes: 8 * FragSize})
	const frag = 8
	var old *Buf
	var req *dev.Request
	waiting := sim.NewCompletion()
	c.Hooks = prepHooks{prepare: func(b *Buf) {
		if b == old {
			waiting.Fire(eng) // the writer is about to wait for room
		}
	}}
	eng.Spawn("writer", func(p *sim.Proc) {
		first := c.Getblk(p, 0, 8)
		c.Bdwrite(first)
		c.Bawrite(p, first) // takes the whole snapshot pool
		old = c.Getblk(p, frag, 8)
		old.Data[0] = 0xBB
		c.Bdwrite(old)
		req = c.Bawrite(p, old) // waits for room
	})
	eng.Spawn("freer", func(p *sim.Proc) {
		waiting.Wait(p)
		if old.hold == 0 { // the wait holds the buffer
			t.Error("setup: the writer is not waiting for snapshot room")
		}
		c.Drop(frag)
		if old.Data == nil {
			t.Error("a buffer waiting for snapshot room lost its storage to a Drop")
		}
		nb := c.Getblk(p, frag, 8)
		nb.Data[0] = 0xCC
		c.Bdwrite(nb)
		c.Bawrite(nil, nb)
	})
	eng.Run()
	if req != nil {
		t.Errorf("the dropped buffer was written (request %d)", req.ID)
	}
	if old.Data != nil {
		t.Error("the dropped buffer kept its storage after its write was abandoned")
	}
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(frag), got)
	if got[0] != 0xCC {
		t.Errorf("fragment %d holds %#x on the media, want the new owner's 0xcc", frag, got[0])
	}
	if c.copyOutstanding != 0 {
		t.Errorf("%d snapshot bytes still accounted", c.copyOutstanding)
	}
}
