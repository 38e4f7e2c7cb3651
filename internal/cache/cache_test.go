package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

func newRig(cfg Config) (*sim.Engine, *disk.Disk, *dev.Driver, *Cache) {
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	drv := dev.New(eng, dsk, dev.Config{Mode: dev.ModeIgnore})
	cpu := &sim.CPU{}
	return eng, dsk, drv, New(eng, drv, cpu, cfg)
}

// runIn executes fn as a simulated process and runs the engine to
// completion, panicking on deadlock.
func runIn(eng *sim.Engine, fn func(p *sim.Proc)) {
	done := false
	eng.Spawn("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	eng.Run()
	if !done {
		panic("simulated process deadlocked")
	}
}

func TestBreadMissAndHit(t *testing.T) {
	eng, dsk, _, c := newRig(Config{})
	want := bytes.Repeat([]byte{0x42}, 2*FragSize)
	dsk.Commit(lbnOf(100), want)
	runIn(eng, func(p *sim.Proc) {
		b, _ := c.Bread(p, 100, 2)
		if !bytes.Equal(b.Data, want) {
			t.Error("miss read wrong data")
		}
		b2, _ := c.Bread(p, 100, 2)
		if b2 != b {
			t.Error("hit returned a different buffer")
		}
	})
	if c.Misses != 1 || c.Hits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestBreadSizeConflictPanics(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		c.Bread(p, 100, 2)
		defer func() {
			if recover() == nil {
				t.Error("size-conflicting Bread did not panic")
			}
		}()
		c.Bread(p, 100, 4)
	})
}

func TestConcurrentBreadSingleIO(t *testing.T) {
	eng, dsk, _, c := newRig(Config{})
	dsk.Commit(lbnOf(50), bytes.Repeat([]byte{9}, FragSize))
	got := 0
	for i := 0; i < 3; i++ {
		eng.Spawn("reader", func(p *sim.Proc) {
			b, _ := c.Bread(p, 50, 1)
			if b.Data[0] == 9 {
				got++
			}
		})
	}
	eng.Run()
	if got != 3 {
		t.Fatalf("%d of 3 readers saw the data", got)
	}
	if c.ReadsIssued != 1 {
		t.Errorf("ReadsIssued = %d, want 1 (waiters share the read)", c.ReadsIssued)
	}
}

func TestGetblkZeroedNoIO(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 200, 8)
		for _, x := range b.Data {
			if x != 0 {
				t.Fatal("Getblk returned non-zero data")
			}
		}
	})
	if c.ReadsIssued != 0 {
		t.Errorf("Getblk issued %d reads", c.ReadsIssued)
	}
}

func TestBwriteCommitsToMedia(t *testing.T) {
	eng, dsk, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 10, 1)
		copy(b.Data, bytes.Repeat([]byte{7}, FragSize))
		c.Bdwrite(b)
		c.Bwrite(p, b)
		if b.Dirty {
			t.Error("buffer still dirty after Bwrite")
		}
	})
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(10), got)
	if got[0] != 7 {
		t.Fatal("Bwrite did not reach media")
	}
}

func TestWriteLockBlocksModifier(t *testing.T) {
	// Without -CB, a process modifying a buffer with a write in flight must
	// wait for the write to complete (section 3.3).
	eng, _, _, c := newRig(Config{})
	var modAt, writeDone sim.Time
	eng.Spawn("writer", func(p *sim.Proc) {
		b := c.Getblk(p, 10, 1)
		b.Data[0] = 1
		req := c.Bawrite(p, b)
		req.Done.Wait(p)
		writeDone = p.Now()
	})
	eng.Spawn("modifier", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // let the write get issued
		b := c.Lookup(10)
		c.PrepareModify(p, b)
		modAt = p.Now()
		b.Data[0] = 2
	})
	eng.Run()
	if modAt < writeDone {
		t.Fatalf("modifier ran at %v before write completed at %v", modAt, writeDone)
	}
}

func TestCBAvoidsWriteLock(t *testing.T) {
	eng, dsk, _, c := newRig(Config{CB: true})
	var modAt, writeDone sim.Time
	var req *dev.Request
	eng.Spawn("writer", func(p *sim.Proc) {
		b := c.Getblk(p, 10, 1)
		b.Data[0] = 1
		req = c.Bawrite(p, b)
		req.Done.Wait(p)
		writeDone = p.Now()
	})
	eng.Spawn("modifier", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		b := c.Lookup(10)
		c.PrepareModify(p, b)
		modAt = p.Now()
		b.Data[0] = 2
	})
	eng.Run()
	if modAt >= writeDone {
		t.Fatalf("with -CB the modifier should not wait (mod %v, done %v)", modAt, writeDone)
	}
	// The snapshot, not the later modification, must be on the media.
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(10), got)
	if got[0] != 1 {
		t.Fatalf("media has %d, want snapshot value 1", got[0])
	}
}

func TestSyncerFlushesDirtyBlocks(t *testing.T) {
	eng, dsk, _, c := newRig(Config{SyncerFraction: 2})
	c.StartSyncer()
	eng.Spawn("user", func(p *sim.Proc) {
		b := c.Getblk(p, 30, 1)
		b.Data[0] = 0xAB
		c.Bdwrite(b)
	})
	// Two-pass marking with fraction 1/2: flushed within ~4 seconds.
	eng.RunUntil(5 * sim.Second)
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(30), got)
	if got[0] != 0xAB {
		t.Fatal("syncer did not flush dirty block")
	}
	if c.DirtyCount() != 0 {
		t.Errorf("DirtyCount = %d after syncer flush", c.DirtyCount())
	}
	c.StopSyncer()
}

func TestSyncerServicesWorkitemsFirst(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	c.StartSyncer()
	var ranAt sim.Time
	c.QueueWork(func(p *sim.Proc) { ranAt = p.Now() })
	eng.RunUntil(1500 * sim.Millisecond)
	c.StopSyncer()
	if ranAt == 0 || ranAt > sim.Second {
		t.Fatalf("workitem ran at %v, want within one second", ranAt)
	}
}

func TestWorkitemsChainWithinOnePass(t *testing.T) {
	// A workitem queued by another workitem is drained in the same pass.
	eng, _, _, c := newRig(Config{})
	order := []int{}
	c.QueueWork(func(p *sim.Proc) {
		order = append(order, 1)
		c.QueueWork(func(p *sim.Proc) { order = append(order, 2) })
	})
	runIn(eng, func(p *sim.Proc) { c.RunWork(p) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("workitem chain ran %v", order)
	}
}

func TestSyncAllQuiesces(t *testing.T) {
	eng, dsk, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			b := c.Getblk(p, 100+i*8, 8)
			b.Data[0] = byte(i + 1)
			c.Bdwrite(b)
		}
		c.SyncAll(p, 10)
	})
	if c.DirtyCount() != 0 {
		t.Fatalf("%d dirty buffers after SyncAll", c.DirtyCount())
	}
	got := make([]byte, FragSize)
	for i := int64(0); i < 10; i++ {
		dsk.ReadAt(lbnOf(100+i*8), got)
		if got[0] != byte(i+1) {
			t.Fatalf("block %d not flushed", i)
		}
	}
}

func TestEvictionLRUAndDirtyWriteback(t *testing.T) {
	// Cache of 4 blocks of 8 frags: inserting a 5th evicts the LRU clean
	// one; dirty buffers get written back rather than lost.
	eng, dsk, _, c := newRig(Config{MaxBytes: 4 * 8 * FragSize})
	runIn(eng, func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			b := c.Getblk(p, i*8, 8)
			b.Data[0] = byte(i + 1)
			c.Bdwrite(b)
			p.Sleep(sim.Millisecond)
		}
		c.Getblk(p, 100, 8) // forces eviction of frag 0 (LRU)
	})
	if c.Lookup(0) != nil {
		t.Fatal("LRU buffer not evicted")
	}
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(0), got)
	if got[0] != 1 {
		t.Fatal("evicted dirty buffer was not written back")
	}
}

func TestPinnedBufferNotEvicted(t *testing.T) {
	eng, _, _, c := newRig(Config{MaxBytes: 2 * 8 * FragSize})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 0, 8)
		b.Pinned = true
		p.Sleep(sim.Millisecond)
		c.Getblk(p, 8, 8)
		p.Sleep(sim.Millisecond)
		c.Getblk(p, 16, 8)
	})
	if c.Lookup(0) == nil {
		t.Fatal("pinned buffer was evicted")
	}
}

func TestDrop(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 40, 2)
		b.Data[0] = 1
		c.Bdwrite(b)
		c.Drop(40)
		if c.Lookup(40) != nil {
			t.Error("Drop left buffer resident")
		}
		c.Drop(41) // absent: no-op
	})
}

func TestDropDuringWriteUnmapsImmediately(t *testing.T) {
	// A freed buffer leaves the cache at once so its fragments can be
	// re-cached by a new owner; the in-flight write keeps its own source
	// and is ordered ahead of the new owner's writes by the driver.
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 40, 2)
		b.Data[0] = 1
		req := c.Bawrite(p, b)
		c.Drop(40)
		if c.Lookup(40) != nil {
			t.Error("dropped buffer still mapped")
		}
		nb := c.Getblk(p, 40, 2) // new owner may appear immediately
		if nb == b {
			t.Error("new owner got the dropped buffer")
		}
		req.Done.Wait(p)
	})
}

// rollbackHooks substitutes a rolled-back copy of the write source,
// exercising the soft-updates hook surface.
type rollbackHooks struct {
	NopHooks
	rollbacks int
}

func (h *rollbackHooks) BeforeWrite(b *Buf, src []byte) []byte {
	h.rollbacks++
	cp := append([]byte(nil), src...)
	cp[0] = 0
	return cp
}

func (h *rollbackHooks) WriteDone(b *Buf, req *dev.Request) {}

func TestHooksRollbackSubstitutesSource(t *testing.T) {
	eng, dsk, _, c := newRig(Config{})
	h := &rollbackHooks{}
	c.Hooks = h
	var seen byte
	eng.Spawn("writer", func(p *sim.Proc) {
		b := c.Getblk(p, 10, 1)
		b.Data[0] = 0xEE
		req := c.Bawrite(p, b)
		req.Done.Wait(p)
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		b, _ := c.Bread(p, 10, 1)
		seen = b.Data[0]
	})
	eng.Run()
	if h.rollbacks == 0 {
		t.Fatal("hook never ran")
	}
	// The live buffer is never perturbed: readers always see 0xEE.
	if seen != 0xEE {
		t.Fatalf("reader saw %#x, want live value 0xEE", seen)
	}
	// Media must have the rolled-back (substituted) value.
	got := make([]byte, FragSize)
	dsk.ReadAt(lbnOf(10), got)
	if got[0] != 0 {
		t.Fatalf("media has %#x, want rolled-back 0", got[0])
	}
}

func TestWriteFlagAndDepsConsumed(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 10, 1)
		b.WriteFlag = true
		b.WriteDeps = []uint64{99}
		req := c.Bawrite(p, b)
		if !req.Flag || len(req.DependsOn) != 1 || req.DependsOn[0] != 99 {
			t.Error("flag/deps not propagated to request")
		}
		if b.WriteFlag || b.WriteDeps != nil {
			t.Error("flag/deps not cleared after issue")
		}
		req.Done.Wait(p)
	})
}

func TestIssueWhileWritingKeepsDirty(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 10, 1)
		c.Bdwrite(b)
		req1 := c.Bawrite(p, b)
		if req1 == nil {
			t.Fatal("first write not issued")
		}
		req2 := c.Bawrite(p, b)
		if req2 != nil {
			t.Fatal("second write issued while first in flight")
		}
		if !b.Dirty {
			t.Fatal("buffer lost dirty state")
		}
		req1.Done.Wait(p)
	})
}

// failAllWrites fails every write for good: the driver exhausts its retries
// and fails the request to its issuer.
type failAllWrites struct{}

func (failAllWrites) Judge(write bool, _ int64, _ int, _ func(int64) bool) fault.Outcome {
	if write {
		return fault.Outcome{Kind: fault.Transient}
	}
	return fault.Outcome{}
}

// TestWriteReq pins the newest write in flight a buffer reports: the
// request while it is in flight and 0 once it has landed; under -CB with
// two in flight, the newer one until that lands too; and 0 after a failed
// write — the failed request left the driver, so naming it would order
// nothing (the driver drops a DependsOn ID that is not pending).
func TestWriteReq(t *testing.T) {
	t.Run("one write", func(t *testing.T) {
		eng, _, _, c := newRig(Config{})
		runIn(eng, func(p *sim.Proc) {
			b := c.Getblk(p, 10, 1)
			if got := b.WriteReq(); got != 0 {
				t.Fatalf("fresh buffer names write %d", got)
			}
			r := c.Bawrite(p, b)
			if got := b.WriteReq(); got != r.ID {
				t.Fatalf("in flight: WriteReq %d, want %d", got, r.ID)
			}
			r.Done.Wait(p)
			if got := b.WriteReq(); got != 0 {
				t.Fatalf("landed: WriteReq %d, want 0", got)
			}
		})
	})
	t.Run("two in flight under CB", func(t *testing.T) {
		eng, _, _, c := newRig(Config{CB: true})
		runIn(eng, func(p *sim.Proc) {
			b := c.Getblk(p, 10, 1)
			r1 := c.Bawrite(p, b)
			r2 := c.Bawrite(p, b)
			if got := b.WriteReq(); got != r2.ID || r1.ID == r2.ID {
				t.Fatalf("WriteReq %d, want the newer %d (older %d)", got, r2.ID, r1.ID)
			}
			r1.Done.Wait(p)
			if r2.Done.Fired() {
				t.Fatal("setup: the newer write landed with the older")
			}
			if got := b.WriteReq(); got != r2.ID {
				t.Fatalf("older landed: WriteReq %d, want the newer %d", got, r2.ID)
			}
			r2.Done.Wait(p)
			if got := b.WriteReq(); got != 0 {
				t.Fatalf("both landed: WriteReq %d, want 0", got)
			}
		})
	})
	t.Run("failed", func(t *testing.T) {
		eng, dsk, _, c := newRig(Config{})
		dsk.SetFaults(failAllWrites{}, 0)
		runIn(eng, func(p *sim.Proc) {
			b := c.Getblk(p, 10, 1)
			r := c.Bawrite(p, b)
			r.Done.Wait(p)
			if r.Err == nil {
				t.Fatal("setup: the write did not fail")
			}
			if got := b.WriteReq(); got != 0 {
				t.Fatalf("failed: WriteReq %d, want 0", got)
			}
		})
	})
}

func TestCopyPoolBackpressure(t *testing.T) {
	// With a tiny snapshot pool, a burst of CB writes must block the issuer
	// until completions release pool space — never exceeding the cap.
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	drv := dev.New(eng, dsk, dev.Config{Mode: dev.ModeIgnore})
	cpu := &sim.CPU{}
	c := New(eng, drv, cpu, Config{CB: true, MaxCopyBytes: 4 * 8 * FragSize})
	var maxOutstanding int
	runIn(eng, func(p *sim.Proc) {
		for i := int64(0); i < 20; i++ {
			b := c.Getblk(p, i*8, 8)
			b.Data[0] = byte(i)
			c.Bdwrite(b)
			c.Bawrite(p, b)
			if c.copyOutstanding > maxOutstanding {
				maxOutstanding = c.copyOutstanding
			}
		}
		drv.WaitIdle(p)
	})
	if maxOutstanding > 4*8*FragSize {
		t.Fatalf("pool exceeded: %d outstanding", maxOutstanding)
	}
	if c.copyOutstanding != 0 {
		t.Fatalf("%d snapshot bytes leaked", c.copyOutstanding)
	}
}

func TestHoldPreventsEviction(t *testing.T) {
	eng, _, _, c := newRig(Config{MaxBytes: 2 * 8 * FragSize})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 0, 8)
		b.Hold()
		p.Sleep(sim.Millisecond)
		c.Getblk(p, 8, 8)
		p.Sleep(sim.Millisecond)
		c.Getblk(p, 16, 8) // would evict frag 0 without the hold
		if c.Lookup(0) == nil {
			t.Fatal("held buffer was evicted")
		}
		if c.HeldCount() != 1 {
			t.Fatalf("HeldCount = %d", c.HeldCount())
		}
		b.Unhold()
		if c.HeldCount() != 0 {
			t.Fatal("Unhold did not release")
		}
	})
}

func TestUnholdWithoutHoldPanics(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 0, 1)
		defer func() {
			if recover() == nil {
				t.Error("Unhold without Hold did not panic")
			}
		}()
		b.Unhold()
	})
}

func TestResizeTracksBytes(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		b := c.Getblk(p, 0, 2)
		before := c.Bytes()
		c.Resize(b, 6)
		if c.Bytes() != before+4*FragSize {
			t.Fatalf("Bytes() = %d after grow, want %d", c.Bytes(), before+4*FragSize)
		}
		if b.NFrags() != 6 {
			t.Fatalf("NFrags = %d", b.NFrags())
		}
		c.Resize(b, 6) // no-op
		if c.Bytes() != before+4*FragSize {
			t.Fatal("no-op resize changed accounting")
		}
	})
}

// TestDropDuringReadUnmapsAtCompletion: a fragment freed while its buffer
// is still being read in must not leave that buffer mapped once the fill
// lands — the fragment's next owner may cache it at another size, which a
// stale mapping turns into a size-conflict panic.
func TestDropDuringReadUnmapsAtCompletion(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	eng.Spawn("reader", func(p *sim.Proc) {
		if _, err := c.Bread(p, 40, 2); err != nil {
			t.Errorf("Bread: %v", err)
		}
	})
	eng.Spawn("dropper", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // the read is in flight
		b := c.Lookup(40)
		if b == nil || b.reading == nil {
			t.Error("setup: no fill in flight")
			return
		}
		c.Drop(40)
		if c.Lookup(40) != b {
			t.Error("buffer unmapped while its fill was still in flight")
		}
		b.reading.Wait(p)
		if got := c.Lookup(40); got != nil {
			t.Errorf("dropped buffer still mapped after its fill completed (invalid=%v)", got.invalid)
		}
		c.Getblk(p, 40, 4) // the new owner, at another size
	})
	eng.Run()
	if c.Bytes() != 4*FragSize {
		t.Errorf("Bytes() = %d, want only the new owner's %d", c.Bytes(), 4*FragSize)
	}
}

// sortOracle is the eviction order by definition — every mapped buffer,
// sorted by (lastUse, Frag) — which makeRoom used to recompute per miss.
func sortOracle(c *Cache) []*Buf {
	var order []*Buf
	for _, b := range c.bufs.All() {
		if *b != nil {
			order = append(order, *b)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].lastUse != order[j].lastUse {
			return order[i].lastUse < order[j].lastUse
		}
		return order[i].Frag < order[j].Frag
	})
	return order
}

// checkLRU reports whether the list the cache keeps is exactly the oracle's
// order, forwards and backwards.
func checkLRU(t *testing.T, c *Cache, step int, what string) bool {
	t.Helper()
	want := sortOracle(c)
	i := 0
	for b := c.lru.next; b != &c.lru; b = b.next {
		if i >= len(want) || want[i] != b {
			t.Errorf("step %d (%s): list position %d holds frag %d, oracle disagrees", step, what, i, b.Frag)
			return false
		}
		if b.next.prev != b {
			t.Errorf("step %d (%s): broken back link at frag %d", step, what, b.Frag)
			return false
		}
		i++
	}
	if i != len(want) || i != c.nbufs {
		t.Errorf("step %d (%s): list holds %d buffers, index %d, count %d", step, what, i, len(want), c.nbufs)
	}
	return i == len(want) && i == c.nbufs
}

// TestEvictionOrderMatchesSortOracle is the differential test of the kept
// LRU order: a seeded mix of every operation that maps, touches, resizes,
// protects or unmaps a buffer, on a cache small enough to evict constantly
// and with most touches sharing an instant (so the Frag tie rule decides),
// must leave the list in the sorted order after every step.
func TestEvictionOrderMatchesSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, _, _, c := newRig(Config{MaxBytes: 40 * FragSize, CB: seed%2 == 0})
		c.StartSyncer()
		// Buffers start every 4 fragments and cover 1–4: a resident one is
		// asked for at the size it has, a new one at a size of its own.
		size := func(frag int64) int {
			if b := c.Lookup(frag); b != nil {
				return b.NFrags()
			}
			return 1 + int(frag/4)%4
		}
		for w := 0; w < 3; w++ {
			eng.Spawn("user", func(p *sim.Proc) {
				var held []*Buf
				for step := 0; step < 400 && !t.Failed(); step++ {
					frag := 4 * rng.Int63n(30)
					what := "Bread"
					switch op := rng.Intn(10); {
					case op < 3:
						b, err := c.Bread(p, frag, size(frag))
						if err != nil {
							t.Errorf("Bread: %v", err)
						} else if rng.Intn(4) == 0 {
							held = append(held, b.Hold())
						}
					case op < 6:
						what = "Getblk+Bdwrite"
						b := c.Getblk(p, frag, size(frag))
						if rng.Intn(3) > 0 {
							c.PrepareModify(p, b)
							c.Bdwrite(b)
						}
						b.Pinned = rng.Intn(8) == 0
					case op < 7:
						what = "Drop"
						if b := c.Lookup(frag); b != nil && b.hold == 0 {
							c.Drop(frag)
						}
					case op < 8:
						what = "Resize"
						if b := c.Lookup(frag); b != nil && b.reading == nil {
							c.PrepareModify(p, b)
							if c.Lookup(frag) == b { // not dropped while waiting
								c.Resize(b, 1+rng.Intn(4))
							}
						}
					case op < 9:
						what = "Unhold"
						for _, b := range held {
							b.Unhold()
						}
						held = held[:0]
					default:
						what = "Sleep"
						p.Sleep(sim.Duration(rng.Int63n(int64(30 * sim.Millisecond))))
					}
					checkLRU(t, c, step, what)
				}
				for _, b := range held {
					b.Unhold()
				}
			})
		}
		eng.RunWhile(func() bool { return eng.Live() > 1 }) // all but the syncer
		c.StopSyncer()
		if c.Misses < 100 || c.Hits < 100 {
			t.Fatalf("seed %d: %d hits, %d misses: stream too tame", seed, c.Hits, c.Misses)
		}
	}
}

// TestAllocFreeEviction: making room by evicting a clean buffer costs no
// allocation, and the evicted buffer's storage backs the new one — a Getblk
// into a full cache allocates less than a Getblk into a half-empty one does
// (the buffer, without its data).
func TestAllocFreeEviction(t *testing.T) {
	const nbufs = 64
	getblks := func(fill int) float64 {
		eng, _, _, c := newRig(Config{MaxBytes: nbufs * 8 * FragSize})
		var allocs float64
		runIn(eng, func(p *sim.Proc) {
			frag := int64(0)
			next := func() { c.Getblk(p, frag, 8); frag += 8 }
			for i := 0; i < fill; i++ {
				next()
			}
			allocs = testing.AllocsPerRun(nbufs/4, next)
		})
		return allocs
	}
	roomy, full := getblks(nbufs/2), getblks(2*nbufs)
	if full == 0 || full >= roomy {
		t.Fatalf("Getblk allocates %.1f times into a full cache, %.1f into a half-empty one", full, roomy)
	}
}

// sweepOracle is the syncer's sweep by definition, the collect-and-sort that
// SyncerPass and SyncAll ran before the mapped-fragment bitset: every mapped
// fragment in ascending order, cut to segment seg of k.
func sweepOracle(c *Cache, seg, k int) []int64 {
	frags := make([]int64, 0, c.nbufs)
	for f, b := range c.bufs.All() {
		if *b != nil {
			frags = append(frags, f)
		}
	}
	slices.Sort(frags)
	n := len(frags)
	return frags[n*seg/k : n*(seg+1)/k]
}

// TestSyncerSweepMatchesSortOracle is the differential test of the bitset
// sweep. Users map, dirty, hold, drop and evict buffers on a small -CB cache
// whose snapshot pool holds two writes, so a sweep's writes wait for the pool
// and for the copy's CPU time, and a SyncAll runs beside the syncer. After
// every user step each of the k segments must be the oracle's. Around every
// pass: what the pass swept — left in c.fragScratch when it returns, as
// nothing runs between its last statement and the check — must be the
// segment the oracle named when the pass began, whatever was mapped, dropped
// or swept by SyncAll while the pass was blocked.
func TestSyncerSweepMatchesSortOracle(t *testing.T) {
	const k = 4
	var passes, overlapped, passWrites int64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, _, _, c := newRig(Config{MaxBytes: 40 * FragSize, CB: true, MaxCopyBytes: 8 * FragSize, SyncerFraction: k})
		checkSegments := func(step int, what string) {
			t.Helper()
			for seg := 0; seg < k; seg++ {
				got := c.sweep(seg, k)
				if want := sweepOracle(c, seg, k); !slices.Equal(got, want) {
					t.Errorf("seed %d step %d (%s): segment %d of %d is %v, oracle %v", seed, step, what, seg, k, got, want)
				}
				c.fragScratch = got
			}
		}
		users, syncing, stop := 3, false, false
		eng.Spawn("syncer", func(p *sim.Proc) {
			for !stop {
				p.Sleep(sim.Duration(1 + rng.Int63n(int64(40*sim.Millisecond))))
				seg := c.syncerRound % k
				want := sweepOracle(c, seg, k)
				beside, writes := syncing, c.WritesIssued
				c.SyncerPass(p)
				if got := c.fragScratch; !slices.Equal(got, want) {
					t.Errorf("seed %d: pass over segment %d swept %v, oracle at its start %v", seed, seg, got, want)
				}
				passes++
				passWrites += c.WritesIssued - writes
				if beside || syncing {
					overlapped++
				}
			}
		})
		eng.Spawn("sync", func(p *sim.Proc) {
			for !stop {
				p.Sleep(sim.Duration(rng.Int63n(int64(200 * sim.Millisecond))))
				syncing = true
				c.SyncAll(p, 2)
				syncing = false
			}
		})
		// Buffers start every 4 fragments and cover 1–4, as in
		// TestEvictionOrderMatchesSortOracle.
		size := func(frag int64) int {
			if b := c.Lookup(frag); b != nil {
				return b.NFrags()
			}
			return 1 + int(frag/4)%4
		}
		for w := 0; w < users; w++ {
			eng.Spawn("user", func(p *sim.Proc) {
				defer func() { users-- }()
				var held []*Buf
				for step := 0; step < 300 && !t.Failed(); step++ {
					frag := 4 * rng.Int63n(30)
					what := "Bread"
					switch op := rng.Intn(8); {
					case op < 2:
						b, err := c.Bread(p, frag, size(frag))
						if err != nil {
							t.Errorf("Bread: %v", err)
						} else if rng.Intn(4) == 0 {
							held = append(held, b.Hold())
						}
					case op < 5:
						what = "Getblk+Bdwrite"
						b := c.Getblk(p, frag, size(frag))
						c.PrepareModify(p, b)
						c.Bdwrite(b)
					case op < 6:
						what = "Drop"
						if b := c.Lookup(frag); b != nil && b.hold == 0 {
							c.Drop(frag)
						}
					case op < 7:
						what = "Unhold"
						for _, b := range held {
							b.Unhold()
						}
						held = held[:0]
					default:
						what = "Sleep"
						p.Sleep(sim.Duration(rng.Int63n(int64(30 * sim.Millisecond))))
					}
					checkSegments(step, what)
				}
				for _, b := range held {
					b.Unhold()
				}
			})
		}
		eng.RunWhile(func() bool { return users > 0 })
		stop = true
		eng.Run()
		if c.Misses < 100 || c.Hits < 100 {
			t.Fatalf("seed %d: %d hits, %d misses: stream too tame", seed, c.Hits, c.Misses)
		}
	}
	if passes < 200 || passWrites < 200 || overlapped < 50 {
		t.Fatalf("%d passes wrote %d buffers, %d of them beside a SyncAll: too tame", passes, passWrites, overlapped)
	}
}

// TestAllocFreeSyncerPass: once its sweep slice has reached its size, a
// syncer pass over a cache of a thousand clean buffers — the workitem
// check, the segment's selection from the bitset, the walk — allocates
// nothing.
func TestAllocFreeSyncerPass(t *testing.T) {
	eng, _, _, c := newRig(Config{})
	var allocs float64
	runIn(eng, func(p *sim.Proc) {
		for frag := int64(0); frag < 1000*40; frag += 40 {
			c.Getblk(p, frag, 8)
		}
		for i := 0; i < 2*c.cfg.SyncerFraction; i++ {
			c.SyncerPass(p)
		}
		allocs = testing.AllocsPerRun(2*c.cfg.SyncerFraction, func() { c.SyncerPass(p) })
	})
	if allocs != 0 {
		t.Errorf("syncer pass over %d buffers: %.2f allocs, want 0", c.nbufs, allocs)
	}
}

// checkBufIndex compares the cache's first-touch buffer table against a map
// oracle of the mapped buffers, built from the eviction list: the same
// buffers at the same fragments, the buffer count and the mapped bitset.
func checkBufIndex(c *Cache) error {
	oracle := map[int64]*Buf{}
	for b := c.lru.next; b != &c.lru; b = b.next {
		oracle[b.Frag] = b
	}
	n := 0
	for frag, b := range c.bufs.All() {
		if *b == nil {
			continue
		}
		n++
		if oracle[frag] != *b {
			return fmt.Errorf("table maps a buffer at frag %d the list does not hold there", frag)
		}
	}
	if n != len(oracle) || c.nbufs != n {
		return fmt.Errorf("table maps %d buffers, the list holds %d, the count says %d", n, len(oracle), c.nbufs)
	}
	for frag, b := range oracle {
		if c.Lookup(frag) != b || c.mapped[frag/64]&(1<<(frag%64)) == 0 {
			return fmt.Errorf("frag %d: Lookup or the mapped bitset disagrees with the list", frag)
		}
	}
	return nil
}

// TestBufIndexMatchesMapOracle is the differential test of the buffer
// table: users map buffers (Bread, Getblk) over fragments spread across
// several pages of the table, unmap them (Drop, eviction from a cache of
// 40 fragments), resize them and hold them, with the syncer writing behind;
// after every step the table must be the oracle's map, and what an
// operation returned is what Lookup finds. Once everything is dropped, every
// page of the table has been given back.
func TestBufIndexMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, _, _, c := newRig(Config{MaxBytes: 40 * FragSize, CB: seed%2 == 0})
		c.StartSyncer()
		pages := []int64{0, 512, 3 * 512, 40 * 512}
		frags := func() int64 { return pages[rng.Intn(len(pages))] + 4*rng.Int63n(20) }
		size := func(frag int64) int {
			if b := c.Lookup(frag); b != nil {
				return b.NFrags()
			}
			return 1 + int(frag/4)%4
		}
		steps := 0
		for w := 0; w < 3; w++ {
			eng.Spawn("user", func(p *sim.Proc) {
				var held []*Buf
				for step := 0; step < 300 && !t.Failed(); step++ {
					frag := frags()
					var got *Buf
					switch op := rng.Intn(10); {
					case op < 3:
						b, err := c.Bread(p, frag, size(frag))
						if err != nil {
							t.Errorf("Bread: %v", err)
						}
						got = b
					case op < 6:
						got = c.Getblk(p, frag, size(frag))
						if rng.Intn(3) > 0 {
							c.PrepareModify(p, got)
							c.Bdwrite(got)
						}
					case op < 7:
						if b := c.Lookup(frag); b != nil && b.hold == 0 {
							c.Drop(frag)
							if c.Lookup(frag) != nil && b.reading == nil {
								t.Errorf("frag %d still mapped after its Drop", frag)
							}
						}
					case op < 8:
						if b := c.Lookup(frag); b != nil && b.reading == nil {
							c.PrepareModify(p, b)
							if c.Lookup(frag) == b {
								c.Resize(b, 1+rng.Intn(4))
								got = b
							}
						}
					case op < 9:
						if b := c.Lookup(frag); b != nil {
							held = append(held, b.Hold())
						}
					default:
						for _, b := range held {
							b.Unhold()
						}
						held = held[:0]
						p.Sleep(sim.Duration(rng.Int63n(int64(30 * sim.Millisecond))))
					}
					if got != nil && got.next != nil && c.Lookup(got.Frag) != got {
						t.Errorf("step %d: Lookup(%d) is not the buffer just returned there", step, got.Frag)
					}
					if err := checkBufIndex(c); err != nil {
						t.Errorf("seed %d step %d: %v", seed, step, err)
					}
					steps++
				}
				for _, b := range held {
					b.Unhold()
				}
			})
		}
		eng.RunWhile(func() bool { return eng.Live() > 1 }) // all but the syncer
		c.StopSyncer()
		runIn(eng, func(p *sim.Proc) {
			c.SyncAll(p, 16)
			for b := c.lru.next; b != &c.lru; {
				next := b.next
				c.Drop(b.Frag)
				b = next
			}
		})
		if err := checkBufIndex(c); err != nil {
			t.Fatalf("seed %d at the end: %v", seed, err)
		}
		for frag := range c.bufs.All() {
			t.Fatalf("seed %d: an empty cache keeps the table page of frag %d", seed, frag)
		}
		if c.Misses < 100 || steps < 900 {
			t.Fatalf("seed %d: %d misses in %d steps: stream too tame", seed, c.Misses, steps)
		}
	}
}

// TestLostVerdictOutlivesEviction: the verdict on an abandoned write is
// kept by fragment, not on the buffer. It survives the buffer's eviction
// and a re-read of the fragment, and only a successful write from the
// fragment or its Drop clears it; then the verdict table is empty again.
func TestLostVerdictOutlivesEviction(t *testing.T) {
	eng, dsk, _, c := newRig(Config{})
	runIn(eng, func(p *sim.Proc) {
		abandon := func(frag int64) {
			dsk.SetFaults(failAllWrites{}, 0)
			defer dsk.SetFaults(nil, 0)
			b := c.Getblk(p, frag, 1)
			c.Bdwrite(b)
			lost := c.LostWrites
			for i := 0; i < 2*maxWriteFails && c.LostWrites == lost; i++ {
				c.Bwrite(p, b)
			}
			if c.LostWrites != lost+1 || !c.Lost(frag) || b.Dirty {
				t.Fatalf("setup: frag %d not abandoned (LostWrites %d, Lost %v, dirty %v)", frag, c.LostWrites, c.Lost(frag), b.Dirty)
			}
		}
		abandon(10)
		c.DropClean()
		if c.Lookup(10) != nil || !c.Lost(10) {
			t.Fatalf("after eviction: resident %v, Lost %v; want evicted and still lost", c.Lookup(10) != nil, c.Lost(10))
		}
		b, err := c.Bread(p, 10, 1)
		if err != nil || !c.Lost(10) {
			t.Fatalf("re-read: err %v, Lost %v; want the verdict kept", err, c.Lost(10))
		}
		c.Bdwrite(b)
		if err := c.Bwrite(p, b); err != nil || c.Lost(10) {
			t.Fatalf("successful rewrite: err %v, Lost %v; want the verdict cleared", err, c.Lost(10))
		}
		abandon(20)
		c.Drop(20)
		if c.Lost(20) {
			t.Fatal("Drop kept the verdict of a freed fragment")
		}
	})
	for frag := range c.lost.All() {
		t.Fatalf("no verdict left, yet the verdict table keeps the page of frag %d", frag)
	}
}
