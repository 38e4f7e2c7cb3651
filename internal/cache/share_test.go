package cache

import (
	"fmt"
	"strings"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/sim"
)

// The -CB sharing rules: a write shares its buffer's storage until the
// buffer is modified, and lands the bytes it was issued with either way.

// sameStorage reports whether a and b start at the same byte.
func sameStorage(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// mediaByte returns the first byte of fragment frag on the media.
func mediaByte(dsk *disk.Disk, frag int64) byte {
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(frag), got)
	return got[0]
}

// warm puts one 8-fragment slice into the storage pool, so that a copy
// taken from the pool shows in its length.
func warm() { putStorage(make([]byte, 8*FragSize)) }

// issue fills b's first byte with v and issues a -CB write of it. The
// issue does not yield (no process is charged the copy's CPU time), so the
// write is still in flight when issue returns.
func issue(p *sim.Proc, c *Cache, b *Buf, v byte) *dev.Request {
	c.PrepareModify(p, b)
	b.Data[0] = v
	c.Bdwrite(b)
	return c.Bawrite(nil, b)
}

// TestCBWriteOfUnmodifiedBufferTakesNoCopy: a write from a buffer nobody
// modifies carries the buffer's own storage, takes nothing from the pool,
// and lands the bytes it had at issue.
func TestCBWriteOfUnmodifiedBufferTakesNoCopy(t *testing.T) {
	eng, dsk, drv, c := newRig(Config{CB: true})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8).Hold()
		before := Pooled(8)
		r := issue(p, c, b, 1)
		if !sameStorage(r.Data, b.Data) || Pooled(8) != before {
			t.Error("the write copied its buffer, which nobody modified")
		}
		r.Done.Wait(p)
		drv.Release(r)
		if got := mediaByte(dsk, 8); got != 1 {
			t.Errorf("media holds %d, want the issued 1", got)
		}
		b.Unhold()
	})
}

// TestCBModifyAfterIssueLandsIssueBytes: a buffer modified after its write
// was issued moves that write to a copy; the media gets the bytes of the
// issue, the buffer keeps its new bytes, and a slice of Data taken before
// PrepareModify still reads the buffer.
func TestCBModifyAfterIssueLandsIssueBytes(t *testing.T) {
	eng, dsk, drv, c := newRig(Config{CB: true})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8).Hold()
		r := issue(p, c, b, 1)
		data := b.Data
		c.PrepareModify(p, b)
		data[0] = 2
		if sameStorage(r.Data, b.Data) || !sameStorage(data, b.Data) {
			t.Error("PrepareModify did not move the write off the buffer's storage, or moved the buffer")
		}
		r.Done.Wait(p)
		drv.Release(r)
		if got := mediaByte(dsk, 8); got != 1 {
			t.Errorf("media holds %d, want the issued 1", got)
		}
		if b.Data[0] != 2 {
			t.Errorf("the buffer holds %d, want its new 2", b.Data[0])
		}
		b.Unhold()
	})
}

// TestCBWritesIssuedBeforeModifyShareOneCopy: two writes issued from the
// same bytes move to one copy, which goes back to the pool once, when the
// second lands.
func TestCBWritesIssuedBeforeModifyShareOneCopy(t *testing.T) {
	eng, dsk, drv, c := newRig(Config{CB: true})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8).Hold()
		warm()
		r1 := issue(p, c, b, 1)
		c.Bdwrite(b)
		r2 := c.Bawrite(nil, b)
		before := Pooled(8)
		c.PrepareModify(p, b)
		b.Data[0] = 2
		if !sameStorage(r1.Data, r2.Data) || sameStorage(r1.Data, b.Data) || Pooled(8) != before-1 {
			t.Error("the two writes did not move to one copy")
		}
		r1.Done.Wait(p)
		r2.Done.Wait(p)
		drv.Release(r1)
		drv.Release(r2)
		if Pooled(8) != before {
			t.Errorf("%d storage slices pooled after both writes landed, want %d", Pooled(8), before)
		}
		if got := mediaByte(dsk, 8); got != 1 {
			t.Errorf("media holds %d, want the issued 1", got)
		}
		b.Unhold()
	})
}

// TestCBThreeGenerationsLandInIssueOrder: three generations of writes of
// one buffer in flight at once — two sharing the first copy, one the
// second, one the buffer's own storage. Each lands the bytes it was issued
// with, in issue order; a copy goes back to the pool as its last writer
// lands and not before, the buffer's own storage never; and WriteReq names
// the newest write until it lands.
func TestCBThreeGenerationsLandInIssueOrder(t *testing.T) {
	eng, dsk, drv, c := newRig(Config{CB: true})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8).Hold()
		r1 := issue(p, c, b, 1)
		c.Bdwrite(b)
		r2 := c.Bawrite(nil, b)
		r3 := issue(p, c, b, 2) // PrepareModify moves r1 and r2 to the first copy
		r4 := issue(p, c, b, 3) // and r3 to the second
		own, base := b.Data, Pooled(8)
		for i, w := range []struct {
			r      *dev.Request
			media  byte
			pooled int
		}{{r1, 1, base}, {r2, 1, base + 1}, {r3, 2, base + 2}, {r4, 3, base + 2}} {
			if got := b.WriteReq(); got != r4.ID {
				t.Errorf("before write %d lands: WriteReq %d, want the newest %d", i+1, got, r4.ID)
			}
			w.r.Done.Wait(p)
			for _, later := range []*dev.Request{r1, r2, r3, r4}[i+1:] {
				if later.Done.Fired() {
					t.Fatalf("write %d landed with write %d", later.ID, w.r.ID)
				}
			}
			if got := mediaByte(dsk, 8); got != w.media {
				t.Errorf("write %d landed %d, want its issued %d", i+1, got, w.media)
			}
			if got := Pooled(8); got != w.pooled {
				t.Errorf("after write %d landed: %d storage slices pooled, want %d", i+1, got, w.pooled)
			}
		}
		if got := b.WriteReq(); got != 0 {
			t.Errorf("all landed: WriteReq %d, want 0", got)
		}
		if !sameStorage(b.Data, own) || b.Data[0] != 3 {
			t.Error("the buffer lost its own storage or its bytes")
		}
		for _, r := range []*dev.Request{r1, r2, r3, r4} {
			drv.Release(r)
		}
		b.Unhold()
	})
}

// TestCBSharedStorageOutlivesResizeDropEvict: resizing, dropping or
// evicting a buffer whose storage a write still shares hands the storage to
// the write; the write lands its bytes, and the storage returns to the pool
// when it does.
func TestCBSharedStorageOutlivesResizeDropEvict(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(p *sim.Proc, c *Cache, b *Buf)
	}{
		{"resize", func(p *sim.Proc, c *Cache, b *Buf) { c.Resize(b, 4) }},
		{"drop", func(p *sim.Proc, c *Cache, b *Buf) { c.Drop(b.Frag) }},
		{"evict", func(p *sim.Proc, c *Cache, b *Buf) {
			for frag := int64(16); frag <= 40; frag += 8 { // fills the cache twice over
				c.Getblk(p, frag, 8)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, dsk, drv, c := newRig(Config{CB: true, MaxBytes: 2 * 8 * FragSize})
			runIn(eng, func(p *sim.Proc) {
				b := c.Getblk(p, 8, 2)
				r := issue(p, c, b, 1)
				old := r.Data
				tc.apply(p, c, b)
				if !sameStorage(r.Data, old) {
					t.Error("the write lost its source")
				}
				before := Pooled(2)
				r.Done.Wait(p)
				drv.Release(r)
				if got := mediaByte(dsk, 8); got != 1 {
					t.Errorf("media holds %d, want the issued 1", got)
				}
				c.DropClean()
				if Pooled(2) != before+1 {
					t.Errorf("%d 2-fragment slices pooled after the write landed, want %d", Pooled(2), before+1)
				}
			})
		})
	}
}

// TestCBSharedStorageNotReleasedEarly: a dropped buffer's storage that a
// write still shares stays out of the pool until the write lands. Were it
// released at the Drop, it would be poisoned and handed to the next Getblk,
// and the write would land poison or the new owner's bytes.
func TestCBSharedStorageNotReleasedEarly(t *testing.T) {
	eng, dsk, drv, c := newRig(Config{CB: true})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8)
		r := issue(p, c, b, 1)
		c.Drop(8)
		nb := c.Getblk(p, 16, 8)
		nb.Data[0] = 9
		if sameStorage(nb.Data, r.Data) {
			t.Error("a write's source was handed to a new buffer while in flight")
		}
		r.Done.Wait(p)
		drv.Release(r)
		if got := mediaByte(dsk, 8); got != 1 {
			t.Errorf("media holds %d, want the issued 1", got)
		}
	})
}

// TestCBStoreWithoutPrepareModifyPanics: in a test binary a -CB write's
// source is checksummed at issue, and a store into the buffer that skipped
// PrepareModify panics, naming the fragment, when the write lands.
func TestCBStoreWithoutPrepareModifyPanics(t *testing.T) {
	if !sumCheck {
		t.Fatal("the write-source check is off in a test binary")
	}
	eng, _, _, c := newRig(Config{CB: true})
	eng.Spawn("writer", func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8)
		issue(p, c, b, 1)
		b.Data[0] = 2 // no PrepareModify
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "changed in flight") || !strings.Contains(msg, "fragment 8") {
			t.Errorf("a store without PrepareModify: recovered %q, want the write-source panic naming fragment 8", msg)
		}
	}()
	eng.Run()
}

// TestAllocFreeModifyInFlight: a buffer modified while its write is in
// flight takes one copy from the pool, which goes back when the write
// lands; the cycle allocates nothing once the pools are warm.
func TestAllocFreeModifyInFlight(t *testing.T) {
	eng, _, drv, c := newRig(Config{CB: true})
	var allocs float64
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 8, 8).Hold()
		warm()
		cycle := func() {
			r := issue(p, c, b, 1)
			before := Pooled(8)
			c.PrepareModify(p, b)
			b.Data[0] = 2
			if Pooled(8) != before-1 {
				t.Errorf("modifying in flight took %d pooled copies, want 1", before-Pooled(8))
			}
			r.Done.Wait(p)
			drv.Release(r)
			if Pooled(8) != before {
				t.Error("the copy did not go back to the pool when the write landed")
			}
		}
		cycle()
		allocs = testing.AllocsPerRun(100, cycle)
		b.Unhold()
	})
	if allocs != 0 {
		t.Errorf("modify in flight: %.2f allocs per cycle, want 0", allocs)
	}
}
