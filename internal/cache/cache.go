// Package cache implements the buffer cache and syncer daemon of the
// paper's base operating system (UNIX SVR4 MP, section 2), plus the two
// mechanisms the paper adds to it:
//
//   - the block-copy enhancement of section 3.3 (-CB): in-flight writes do
//     not write-lock the live buffer. A write shares the buffer's storage
//     until the buffer is modified (PrepareModify), which moves the writes
//     still in flight to one copy of the bytes they were issued with;
//   - the hook surface soft updates needs (section 4.2): a scheme can order
//     a write behind one it has yet to submit, roll back updates in the
//     write source just before the write is issued, and be told when the
//     write lands (dependency resolution, workitems).
//
// A buffer names one write in flight, its newest (Buf.write): the writes of
// one buffer land in issue order, so that one field says whether any is in
// flight, which request scheduler chains names as a dependency
// (Buf.WriteReq), and, without -CB, the write lock (Buf.InFlight). The -CB
// writes still sharing a buffer's storage hang off it in issue order, the
// landing one first. Every user of a buffer, a Bread or Getblk still
// handing it out included, counts in its hold.
//
// Buffers are addressed in 1 KB fragments, the file system's smallest
// allocation unit; a buffer covers 1..8 fragments. Their storage, the -CB
// copies and rollback copies come from one pool per process: what a cache
// releases, and what it still maps when it is closed, serves the next cache.
//
// The syncer daemon follows the paper's description of SVR4 MP: it wakes
// once a second, sweeps one fraction of the buffer cache marking dirty
// blocks, and issues asynchronous writes for blocks marked on the previous
// visit of that fraction — and it services the soft-updates workitem queue
// before its normal activities.
package cache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// FragSize is the buffer addressing granularity in bytes (an FFS fragment).
const FragSize = 1024

// SectorsPerFrag converts fragment counts to sector counts.
const SectorsPerFrag = FragSize / disk.SectorSize

// Buf is a cached range of fragments.
type Buf struct {
	Frag int64 // first fragment number
	// Data is len = NFrags * FragSize of storage from the process-wide
	// pool. It goes back to the pool, and Data becomes nil, once the buffer
	// has no reader left (Cache.retire): a holder that breaks the
	// last-reader rule of DESIGN.md §9 panics instead of reading another
	// buffer's bytes.
	Data   []byte
	Dirty  bool
	marked bool // syncer two-pass mark

	reading *sim.Completion // read in flight filling this buffer
	// write is the newest write in flight from this buffer, nil once it has
	// landed: the driver's conflict rule lands one buffer's writes in issue
	// order, so then none is in flight. Without -CB it is the only one and
	// write-locks the buffer; a -CB write does not, but the buffer is not
	// evicted until it lands (a re-read could observe pre-issue media).
	write *cwrite
	// shared leads the list of -CB writes in flight whose source is Data
	// itself (cwrite.next, in issue order), nil when none is.
	shared  *cwrite
	invalid bool // dropped: its fragments were freed

	// Pinned buffers are never evicted (soft updates keeps indirect blocks
	// with pending dependencies "resident and dirty").
	Pinned bool

	// readErr records a failed fill: the buffer is removed from the cache
	// but waiters already holding the pointer must see the error, not
	// zeroed bytes.
	readErr error
	// writeFails counts consecutive failed writes of this buffer; bounded
	// retry via re-dirtying, after which the buffer is dropped (data loss,
	// counted in Cache.LostWrites) rather than wedging the syncer forever.
	writeFails int

	// hold is the reference count of operations currently using the
	// buffer (the classic B_BUSY/refcount role): held buffers are never
	// evicted or dropped idle, so a pointer obtained from Bread/Getblk stays
	// valid across the sleeps inside one file system operation. A Bread or
	// Getblk still handing b to its caller holds it too.
	hold int
	c    *Cache // the cache whose pool Data came from

	// Dep anchors scheme-owned dependency state (pagedep / inodedep /
	// indirdep). The cache never interprets it.
	Dep interface{}

	// WriteFlag and WriteDeps are consumed (and cleared) when the next
	// write of this buffer is issued: the ordering-flag scheme sets
	// WriteFlag, scheduler chains accumulates request IDs in WriteDeps.
	WriteFlag bool
	WriteDeps []uint64

	// lastUse is the instant of the last Bread/Getblk; prev and next thread
	// the buffer into Cache.lru, the eviction order, and are nil while the
	// buffer is not mapped.
	lastUse    sim.Time
	prev, next *Buf
}

// NFrags returns the buffer size in fragments.
func (b *Buf) NFrags() int { return len(b.Data) / FragSize }

// Hold takes a reference: the buffer will not be evicted until Unhold.
func (b *Buf) Hold() *Buf { b.hold++; return b }

// Unhold drops a Hold reference; the last one from a buffer that left the
// cache returns its storage to the pool.
func (b *Buf) Unhold() {
	if b.hold == 0 {
		panic("cache: Unhold without Hold")
	}
	b.hold--
	b.c.retire(b)
}

// InFlight reports whether a write of the buffer itself is in progress: the
// write lock of a cache without -CB. It does not count -CB writes: a clean
// buffer whose -CB write is still on its way to the media reports false
// (ROADMAP item 1(a)).
func (b *Buf) InFlight() bool { return b.write != nil && !b.c.cfg.CB }

// WriteReq returns the ID of the newest write request issued from this
// buffer, 0 once that request has completed (successfully or not). Under
// -CB an older write may still be in flight; the newest one is ordered
// behind it on the media, so naming it covers both.
func (b *Buf) WriteReq() uint64 {
	if b.write == nil {
		return 0
	}
	return b.write.req.ID
}

// AddWriteDep adds request id to WriteDeps once, a new list in the storage
// of one a completed write carried.
func (b *Buf) AddWriteDep(id uint64) {
	if slices.Contains(b.WriteDeps, id) {
		return
	}
	if c := b.c; b.WriteDeps == nil && len(c.depFree) > 0 {
		b.WriteDeps, c.depFree = c.depFree[len(c.depFree)-1], c.depFree[:len(c.depFree)-1]
	}
	b.WriteDeps = append(b.WriteDeps, id)
}

// Hooks is the scheme callback surface. All methods are called with the
// simulation single-threaded; implementations must not block.
type Hooks interface {
	// PrepareWrite runs when a write of b is about to be built, before its
	// WriteFlag/WriteDeps are consumed: the last point at which a scheme can
	// order this write behind a request it has yet to submit (journaling
	// closes its open transaction here and names the commit).
	PrepareWrite(b *Buf)
	// BeforeWrite may substitute the write source: returning a non-nil
	// slice makes it the bytes that reach the platter (soft updates
	// returns a copy with unresolved updates rolled back — the
	// copy-on-write approach the paper recommends over in-place undo).
	// Returning nil keeps src. A substitute is taken with Cache.Copy and
	// belongs to the cache from then on: it goes back to the pool when the
	// write lands.
	BeforeWrite(b *Buf, src []byte) []byte
	// WriteDone runs after the write's data is on the media. req is valid
	// only during the call.
	WriteDone(b *Buf, req *dev.Request)
}

// NopHooks is the no-op Hooks implementation; a scheme embeds it and
// overrides the hooks it needs.
type NopHooks struct{}

func (NopHooks) PrepareWrite(*Buf)               {}
func (NopHooks) BeforeWrite(*Buf, []byte) []byte { return nil }
func (NopHooks) WriteDone(*Buf, *dev.Request)    {}

// Config parameterizes the cache.
type Config struct {
	MaxBytes int  // cache capacity; <=0 means 16 MB
	CB       bool // block-copy enhancement: writes do not lock their buffer
	// SyncerFraction is the number of sweeps needed to cover the whole
	// cache (the conventional value is 30, approximating the classic
	// 30-second sync). <=0 means 30.
	SyncerFraction int
	// MaxCopyBytes bounds the kernel memory holding -CB write snapshots;
	// issuers block when the pool is exhausted, which is the natural
	// backpressure that keeps asynchronous-write schemes disk-bound once
	// they outrun the drive (a real kernel's bounded buffer-header/copy
	// pool). <=0 means DefaultMaxCopyBytes.
	MaxCopyBytes int
}

// DefaultMaxCopyBytes sizes the -CB snapshot pool (16 MB of the paper's
// 48 MB machine).
const DefaultMaxCopyBytes = 16 << 20

// copyCPU is the CPU cost of snapshotting one 8 KB block for -CB (and for
// soft-updates "safe copies"): an 8 KB memcpy on a 33 MHz i486 (~15 MB/s).
const copyCPU = 530 * sim.Microsecond

// Cache is the buffer cache.
type Cache struct {
	eng   *sim.Engine
	drv   *dev.Driver
	cpu   *sim.CPU
	cfg   Config
	Hooks Hooks

	bufs  sim.Table[*Buf] // the buffer mapped at each first fragment
	nbufs int             // mapped buffers
	// lost holds the abandoned-write verdicts by first fragment (Lost),
	// made at the first one. It is a table of its own because it is written
	// only on a faulted disk: in the buffer table it would double the pages
	// every workload touches.
	lost  *sim.Table[bool]
	bytes int // running sum of len(Data) over the mapped buffers
	// lru is the sentinel of a circular list through every mapped buffer in
	// eviction order: ascending (lastUse, Frag), least recently used at
	// lru.next. The order is kept by touch, never recomputed.
	lru Buf
	// mapped has one bit per fragment, set while a buffer starting there is
	// mapped: the syncer's sweep order, kept instead of sorted.
	mapped []uint64
	// fragScratch is the syncer's fragment-sweep slice between sweeps.
	fragScratch []int64

	// Workitem queue (section 4.2): tasks too heavy for completion
	// callbacks, serviced by the syncer before its normal activities.
	work []func(p *sim.Proc)

	// -CB copy pool accounting: every -CB write holds its size from issue
	// to completion, copied or not, and its completion fires and resets
	// copyWait.
	copyOutstanding int
	copyWait        sim.Completion
	// writeFree recycles the bookkeeping of completed writes, depFree the
	// dependency lists (Buf.WriteDeps) they carried.
	writeFree []*cwrite
	depFree   [][]uint64

	// Stats.
	Hits, Misses int64
	WritesIssued int64
	ReadsIssued  int64
	// SyncWrites counts Bwrite calls (the caller demanded durability
	// before proceeding) and DelayedWrites counts Bdwrite calls (buffer
	// marked for eventual write-behind) — the per-scheme write-discipline
	// counters of the paper's comparison. Always on.
	SyncWrites    int64
	DelayedWrites int64
	// Fault-path stats (all zero on a clean disk).
	LostWrites  int64 // dirty buffers dropped after maxWriteFails failures
	syncerRound int
	syncerStop  bool
	closed      bool // by Close: Getblk and Bread panic
}

// New returns a cache over drv. cpu is charged for block copies. The cache
// takes its block storage from the process-wide pool and holds none of its
// own.
func New(eng *sim.Engine, drv *dev.Driver, cpu *sim.CPU, cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 16 << 20
	}
	if cfg.SyncerFraction <= 0 {
		cfg.SyncerFraction = 30
	}
	if cfg.MaxCopyBytes <= 0 {
		cfg.MaxCopyBytes = DefaultMaxCopyBytes
	}
	c := &Cache{
		eng:    eng,
		drv:    drv,
		cpu:    cpu,
		cfg:    cfg,
		Hooks:  NopHooks{},
		bufs:   sim.NewTable[*Buf](drv.Sectors() / SectorsPerFrag),
		mapped: make([]uint64, (drv.Sectors()/SectorsPerFrag+63)/64),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// maxFrags is the largest buffer, in fragments (an FFS block).
const maxFrags = 8

// poisonCheck turns on the use-after-release check in test binaries:
// released storage is filled with poisonByte and must still hold it when
// it is reused, or some reader wrote through a slice it kept past the
// release.
var poisonCheck = testing.Testing()

// sumCheck turns on the write-source check in test binaries: a -CB write's
// source is checksummed at issue and must still match when the write
// lands, or something stored into the buffer without PrepareModify.
var sumCheck = testing.Testing()

const poisonByte = 0xdb

var poison = bytes.Repeat([]byte{poisonByte}, maxFrags*FragSize)

// storage is the process-wide pool of block storage: buffer Data, -CB
// copies and rollback copies of every cache alike, so what one cell or node
// releases serves the next. LIFO stacks by size class (fragments per
// slice), uncapped and shared under one mutex (harness cells run on
// goroutines of their own). Not a sync.Pool: the GC forced before each
// timed phase of the bench would empty it. Contents are always zeroed or
// overwritten and identity is never read, so which slice backs what cannot
// reach the model.
var storage struct {
	mu   sync.Mutex
	free [maxFrags + 1][][]byte
}

// DrainStorage empties the storage pool, so the next get of each class
// carves a slab. It is a test hook: an allocation guard, in this package or
// another, starts from it so that storage earlier tests left pooled cannot
// hide a leak.
func DrainStorage() {
	storage.mu.Lock()
	defer storage.mu.Unlock()
	for k := range storage.free {
		clear(storage.free[k])
		storage.free[k] = storage.free[k][:0]
	}
}

// slabPieces is how many slices of its class an empty class carves from
// one allocation: a pooled slice pins at most slabPieces-1 dead siblings,
// and the GC sweeps one span per slab instead of one per slice.
const slabPieces = 8

// getStorage returns nfrags fragments of block storage, recycled when the
// pool has some of that size and otherwise carved from a fresh slab, whose
// other pieces go to the pool. zero clears recycled bytes; a caller that
// overwrites all of them (a read, a snapshot, a copy) skips that.
func getStorage(nfrags int, zero bool) []byte {
	if nfrags < 1 || nfrags > maxFrags {
		return make([]byte, nfrags*FragSize)
	}
	storage.mu.Lock()
	list := storage.free[nfrags]
	if len(list) == 0 {
		storage.mu.Unlock()
		n := nfrags * FragSize
		slab := make([]byte, slabPieces*n)
		for i := 1; i < slabPieces; i++ {
			putStorage(slab[i*n : (i+1)*n : (i+1)*n])
		}
		return slab[:n:n]
	}
	s := list[len(list)-1]
	list[len(list)-1] = nil
	storage.free[nfrags] = list[:len(list)-1]
	storage.mu.Unlock()
	if poisonCheck && !bytes.Equal(s, poison[:len(s)]) {
		panic("cache: block storage written after its release")
	}
	if zero {
		clear(s)
	}
	return s
}

// putStorage releases s to the pool. Nothing may touch s afterwards.
func putStorage(s []byte) {
	nfrags := len(s) / FragSize
	if nfrags < 1 || nfrags > maxFrags || len(s) != nfrags*FragSize {
		return
	}
	if poisonCheck {
		copy(s, poison)
	}
	storage.mu.Lock()
	storage.free[nfrags] = append(storage.free[nfrags], s)
	storage.mu.Unlock()
}

// retire lets go of b's storage once b has no reader left: it is unmapped,
// unheld, not filled and not the source of a write that locks it. Every
// place one of those ends calls it.
func (c *Cache) retire(b *Buf) {
	if b.next != nil || b.hold > 0 || b.reading != nil || b.InFlight() || b.Data == nil {
		return
	}
	c.release(b)
	b.Data = nil
}

// release lets go of b.Data: -CB writes still sharing it keep it, and the
// last of them to land returns it to the pool; otherwise it goes back now.
func (c *Cache) release(b *Buf) {
	if b.shared != nil {
		c.unshare(b, b.Data)
	} else {
		putStorage(b.Data)
	}
}

// unshare moves every write sharing b's storage to s, which holds the same
// bytes and belongs to them from then on.
func (c *Cache) unshare(b *Buf, s []byte) {
	for w := b.shared; w != nil; w = w.next {
		w.src, w.req.Data = s, s
	}
	b.shared = nil
}

// Copy returns pooled storage holding a copy of src, a whole buffer's
// bytes: the write source a BeforeWrite hook substitutes, or the copy
// PrepareModify moves -CB writes to.
func (c *Cache) Copy(src []byte) []byte {
	s := getStorage(len(src)/FragSize, false)
	copy(s, src)
	return s
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Driver returns the device driver.
func (c *Cache) Driver() *dev.Driver { return c.drv }

func lbnOf(frag int64) int64 { return frag * SectorsPerFrag }

// insert maps a new buffer as the most recently used.
func (c *Cache) insert(b *Buf) {
	*c.bufs.At(b.Frag) = b
	c.bufs.Use(b.Frag)
	c.nbufs++
	c.bytes += len(b.Data)
	b.lastUse = c.eng.Now()
	c.link(b)
	c.mapped[b.Frag/64] |= 1 << (b.Frag % 64)
}

// remove drops b from the cache, keeping the byte count and the eviction
// order in step, and retires its storage if nothing else reads it. A
// buffer that already left (dropped, or replaced at its fragment and
// re-read) is left alone.
func (c *Cache) remove(b *Buf) {
	if b.next == nil {
		return
	}
	*c.bufs.At(b.Frag) = nil
	c.bufs.Unuse(b.Frag)
	c.nbufs--
	c.bytes -= len(b.Data)
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
	c.mapped[b.Frag/64] &^= 1 << (b.Frag % 64)
	c.retire(b)
}

// touch stamps b as used now and moves it to its place in the eviction
// order. A buffer that left the cache while the caller slept is only
// stamped.
func (c *Cache) touch(b *Buf) {
	b.lastUse = c.eng.Now()
	if b.next == nil {
		return
	}
	b.prev.next, b.next.prev = b.next, b.prev
	c.link(b)
}

// link places b, stamped with the current instant, into the eviction order.
// Virtual time never runs backwards, so no mapped buffer carries a later
// lastUse and b belongs at the tail — short only of the buffers used at
// this same instant that have a larger Frag. That keeps the list in exactly
// the (lastUse, Frag) order a sort over c.bufs would produce.
func (c *Cache) link(b *Buf) {
	at := c.lru.prev
	for at != &c.lru && at.lastUse == b.lastUse && at.Frag > b.Frag {
		at = at.prev
	}
	b.prev, b.next = at, at.next
	at.next.prev = b
	at.next = b
}

// lookupOrInsert returns the buffer for nfrags fragments at frag. A hit is
// touched and returned once no read is filling it. A miss maps a new buffer
// that is held until its caller hands it out; with read it is filling until
// the caller's read lands, and its storage is not zeroed. Either way b's
// storage stays for the caller, whatever happens to b meanwhile.
func (c *Cache) lookupOrInsert(p *sim.Proc, frag int64, nfrags int, read bool) (b *Buf, hit bool) {
	if c.closed {
		panic("cache: used after Close")
	}
	if b = c.Lookup(frag); b != nil {
		if b.NFrags() != nfrags {
			op := "Getblk"
			if read {
				op = "Bread"
			}
			panic(fmt.Sprintf("cache: %s(%d,%d) conflicts with resident buffer of %d frags",
				op, frag, nfrags, b.NFrags()))
		}
		c.Hits++
		if b.reading != nil {
			// Piggyback on another process's in-flight fill.
			sp := obs.SpanOf(p)
			sp.Push(p, obs.StageCacheRead)
			b.hold++
			for b.reading != nil {
				b.reading.Wait(p)
			}
			b.hold--
			sp.Pop(p)
		}
		c.touch(b)
		return b, true
	}
	c.Misses++
	b = &Buf{Frag: frag, Data: getStorage(nfrags, !read), c: c, hold: 1}
	if read {
		b.reading = sim.NewCompletion()
	}
	c.insert(b)
	c.makeRoom(p, b)
	return b, false
}

// Bread returns the buffer for nfrags fragments starting at frag, reading
// from disk on a miss. The returned buffer's Data is valid and current (a
// scheme rolls back only write sources, never the buffer). On a media error
// (faulted disk) it returns the driver's error and no buffer.
func (c *Cache) Bread(p *sim.Proc, frag int64, nfrags int) (*Buf, error) {
	b, hit := c.lookupOrInsert(p, frag, nfrags, true)
	if hit {
		if b.readErr != nil {
			// The fill this waiter piggybacked on failed; the buffer is
			// already gone from the cache.
			return nil, b.readErr
		}
		return b, nil
	}
	// Read requests are owned by this function end to end (submitted,
	// waited on inline, no callbacks registered), so they cycle through
	// the driver's pool instead of allocating per miss.
	req := c.drv.AllocRequest()
	req.Op = disk.Read
	req.LBN = lbnOf(frag)
	req.Count = nfrags * SectorsPerFrag
	req.Buf = b.Data
	c.drv.Submit(req)
	c.ReadsIssued++
	sp := obs.SpanOf(p)
	sp.Push(p, obs.StageCacheRead)
	req.Done.Wait(p)
	sp.Pop(p)
	err := req.Err
	c.drv.Release(req)
	r := b.reading
	b.reading = nil
	if err != nil {
		// Waiters see readErr, never the bytes: the storage goes back now.
		b.readErr = err
		b.hold--
		c.remove(b)
		r.Fire(c.eng)
		return nil, err
	}
	if b.invalid {
		// Dropped while the fill was in flight: the fragment was freed, so
		// the buffer must not stay mapped for its next owner to trip over.
		// The caller still reads it, so its storage stays.
		c.remove(b)
	}
	b.hold--
	r.Fire(c.eng)
	c.touch(b)
	return b, nil
}

// Getblk returns a buffer for a range about to be fully overwritten (no
// disk read): freshly allocated blocks. Contents start zeroed.
func (c *Cache) Getblk(p *sim.Proc, frag int64, nfrags int) *Buf {
	b, hit := c.lookupOrInsert(p, frag, nfrags, false)
	if !hit {
		b.hold--
	}
	return b
}

// PrepareModify blocks p until b may be modified: while a write is in
// flight from the live buffer (no -CB), updates must wait — the write-lock
// effect of section 3.3. Under -CB the writes still sharing b's storage
// move to a copy instead, so b.Data itself stays where it is.
func (c *Cache) PrepareModify(p *sim.Proc, b *Buf) {
	if b.shared != nil {
		c.unshare(b, c.Copy(b.Data))
	}
	if b.InFlight() {
		// Write-behind backpressure: the in-flight write was issued by the
		// syncer daemon or another process's flush of this buffer.
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageSyncer)
		for b.InFlight() {
			b.write.done.Wait(p)
		}
		sp.Pop(p)
	}
}

// Bdwrite marks b dirty for a delayed write (flushed by the syncer).
func (c *Cache) Bdwrite(b *Buf) {
	c.DelayedWrites++
	b.Dirty = true
}

// Bawrite issues an asynchronous write of b. It returns the request with a
// reference the caller holds — drop it with Driver().Release once done
// reading the request — or nil if a write was already in flight (the
// buffer stays dirty and will be written again).
func (c *Cache) Bawrite(p *sim.Proc, b *Buf) *dev.Request {
	return c.issueWrite(p, b, true)
}

// Bwrite guarantees b's current contents are on stable storage before
// returning: it issues a synchronous write, waiting out (and then
// superseding) any write already in flight. A non-nil error means the
// driver exhausted its recovery options and the contents are NOT durable
// (the buffer has been re-dirtied for a bounded number of later retries).
func (c *Cache) Bwrite(p *sim.Proc, b *Buf) error {
	c.SyncWrites++
	sp := obs.SpanOf(p)
	for {
		req := c.issueWrite(p, b, true)
		if req != nil {
			// The whole wait is pushed as queue time, then split
			// retroactively from the request's recorded timeline: time
			// before ReadyTime was the ordering barrier, time after
			// DispatchTime was media service.
			t0 := c.eng.Now()
			sp.Push(p, obs.StageQueue)
			req.Done.Wait(p)
			sp.PopWait(p, t0, req.ReadyTime(), req.DispatchTime())
			err := req.Err
			c.drv.Release(req)
			return err
		}
		// A write was already in flight (issued before this call, possibly
		// without the caller's ordering state); wait it out and reissue.
		if b.InFlight() {
			sp.Push(p, obs.StageSyncer)
			b.write.done.Wait(p)
			sp.Pop(p)
		}
		if !b.Dirty {
			return nil
		}
	}
}

// cwrite is the bookkeeping of one write in flight from the cache: what its
// completion needs. Completed ones are recycled through Cache.writeFree.
type cwrite struct {
	c   *Cache
	b   *Buf
	req *dev.Request
	// src is pooled storage the write carries instead of b.Data — a
	// rollback copy, or a -CB write's bytes once its buffer was modified or
	// let go of them — released when the last write carrying it lands.
	src []byte
	// next is the following -CB write carrying the same bytes, in issue
	// order: b.Data while b.shared leads them, src after. They land in that
	// order, so the landing write leads its list.
	next *cwrite
	sum  uint32 // the source's checksum at issue, under sumCheck
	// done fires as a write without -CB lands, after b.write is cleared:
	// the processes waiting on b's write lock sleep on it.
	done sim.Completion
	fire func() // w.complete, bound once
}

// newWrite returns blank write bookkeeping for b.
func (c *Cache) newWrite(b *Buf) *cwrite {
	var w *cwrite
	if n := len(c.writeFree); n > 0 {
		w = c.writeFree[n-1]
		c.writeFree[n-1] = nil
		c.writeFree = c.writeFree[:n-1]
		if w.done.Fired() {
			w.done.Reset()
		}
	} else {
		w = &cwrite{c: c}
		w.fire = w.complete
	}
	w.b = b
	return w
}

// freeWrite recycles w.
func (c *Cache) freeWrite(w *cwrite) {
	w.b, w.req, w.src, w.next = nil, nil, nil, nil
	c.writeFree = append(c.writeFree, w)
}

// issueWrite builds and submits the write request for b. Without -CB a
// second write of the same buffer cannot be issued while one is in flight
// (the source is the live buffer); with -CB each write carries the bytes
// it was issued with, so concurrent writes are allowed — the driver's
// conflict rule keeps them in submission order on the media. With ref the caller gets a
// reference to the returned request (DESIGN.md §9's last-reader rule); the
// completion holds one of its own.
func (c *Cache) issueWrite(p *sim.Proc, b *Buf, ref bool) *dev.Request {
	if b.InFlight() {
		// Already in flight; the caller (syncer) will retry later.
		b.Dirty = true
		return nil
	}
	c.Hooks.PrepareWrite(b)
	// Consume ordering state before anything can yield the virtual CPU, so
	// a concurrent issue (syncer vs. user process under -CB) cannot steal
	// the flag or dependency list from this write.
	flag := b.WriteFlag
	deps := b.WriteDeps
	b.WriteFlag = false
	b.WriteDeps = nil
	b.Dirty = false
	b.marked = false

	if c.cfg.CB && p != nil && c.copyOutstanding+len(b.Data) > c.cfg.MaxCopyBytes {
		// Bounded -CB copy pool: block until there is room (a process
		// context is required to block; engine-context issuers skip the
		// wait and overshoot slightly, which a real ISR path would too).
		// The buffer is held across the wait, so its storage stays
		// whatever happens meanwhile. One dropped meanwhile is not written:
		// its fragments are free, perhaps already another buffer's, and its
		// old bytes would land on them.
		b.hold++
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageSyncer)
		for c.copyOutstanding+len(b.Data) > c.cfg.MaxCopyBytes {
			c.copyWait.Wait(p)
		}
		sp.Pop(p)
		b.Unhold()
		if b.invalid {
			return nil
		}
	}
	w := c.newWrite(b)
	src := b.Data
	var copyCost sim.Duration
	if c.cfg.CB {
		// Block-copy enhancement: the model snapshots the source so the
		// live buffer stays unlocked, and charges the snapshot's pool room
		// and memcpy here. The host copies only if the buffer is modified
		// before the write lands (PrepareModify); the issue and submission
		// happen without yielding the virtual CPU, so concurrent issuers
		// cannot invert issue order vs. submission order.
		c.copyOutstanding += len(src)
		copyCost = copyCPU * sim.Duration(b.NFrags()) / 8
	}
	if repl := c.Hooks.BeforeWrite(b, src); repl != nil {
		// The hook substituted a (rolled back) copy; charge the memcpy.
		// The live buffer stays write-locked until completion so at most
		// one rollback snapshot per buffer is in flight — updates still
		// wait, as with in-place undo, but readers never see undone bytes.
		src, w.src = repl, repl
		copyCost += copyCPU * sim.Duration(b.NFrags()) / 8
	} else if c.cfg.CB {
		// Join the writes sharing b.Data, behind the newest of them.
		at := &b.shared
		for *at != nil {
			at = &(*at).next
		}
		*at = w
	}
	if sumCheck && c.cfg.CB {
		w.sum = crc32.ChecksumIEEE(src)
	}
	req := c.drv.AllocRequest()
	req.Op = disk.Write
	req.LBN = lbnOf(b.Frag)
	req.Count = len(src) / disk.SectorSize
	req.Data = src
	req.Flag = flag
	req.DependsOn = deps
	if ref {
		req.Ref()
	}
	w.req = c.drv.Submit(req)
	b.write = w
	c.WritesIssued++
	req.Done.OnFire(w.fire)
	if copyCost > 0 && c.cpu != nil && p != nil {
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageCPU)
		c.cpu.Use(p, copyCost)
		sp.Pop(p)
	}
	if !ref {
		return nil
	}
	return req
}

// complete is a write's completion callback, run in engine context as its
// request's Done fires. It drops the completion's reference to the request
// last, after the hooks have seen it.
func (w *cwrite) complete() {
	c, b, req := w.c, w.b, w.req
	if c.cfg.CB {
		if sumCheck && crc32.ChecksumIEEE(req.Data) != w.sum {
			panic(fmt.Sprintf("cache: the source of write %d (fragment %d) changed in flight: a store without PrepareModify", req.ID, b.Frag))
		}
		if w.src == nil && b.shared != w {
			panic(fmt.Sprintf("cache: write %d (fragment %d) landed out of issue order among the writes sharing its buffer's storage", req.ID, b.Frag))
		}
		c.copyOutstanding -= len(req.Data)
		c.copyWait.Fire(c.eng)
		c.copyWait.Reset()
	}
	if b.write == w {
		b.write = nil
	}
	if req.Err != nil {
		// The write never (fully) reached the media. Scheme completion
		// hooks are skipped — WriteDone means "the bytes are durable",
		// and they are not. The buffer is re-dirtied so the syncer
		// retries, a bounded number of times: a write that keeps
		// failing (exhausted spare pool) is eventually dropped and
		// counted rather than wedging SyncAll forever.
		b.writeFails++
		if !b.invalid {
			if b.writeFails <= maxWriteFails {
				b.Dirty = true
			} else {
				c.LostWrites++
				b.Dirty = false
				c.setLost(b.Frag, true)
			}
		}
	} else {
		b.writeFails = 0
		c.setLost(b.Frag, false)
		c.Hooks.WriteDone(b, req)
	}
	if b.shared == w {
		b.shared = w.next
	} else if w.next == nil && w.src != nil {
		// The data is on the media (and the crash recorder took its own
		// copy at submission), and no later write carries the same source.
		putStorage(w.src)
	}
	c.retire(b)
	if !c.cfg.CB {
		w.done.Fire(c.eng)
	}
	if req.DependsOn != nil { // read at submission only
		c.depFree = append(c.depFree, req.DependsOn[:0])
		req.DependsOn = nil
	}
	c.drv.Release(req)
	c.freeWrite(w)
}

// maxWriteFails bounds consecutive failed writes of one buffer before its
// contents are abandoned (graceful degradation: fsck's repair pass is the
// backstop for whatever inconsistency the loss introduces).
const maxWriteFails = 4

// Resize grows or shrinks b to nfrags fragments (fragment extension): b
// moves to new storage of the new size holding its bytes, zero past them,
// and its old storage is let go of (release). The caller must have called
// PrepareModify; resizing a buffer with I/O in flight panics.
func (c *Cache) Resize(b *Buf, nfrags int) {
	// With -CB an in-flight write keeps the old storage, so resizing the
	// live buffer is safe; otherwise PrepareModify has already waited.
	if b.reading != nil || b.InFlight() {
		panic("cache: Resize with I/O in flight")
	}
	if nfrags == b.NFrags() {
		return
	}
	c.bytes += nfrags*FragSize - len(b.Data)
	data := getStorage(nfrags, false)
	clear(data[copy(data, b.Data):])
	c.release(b)
	b.Data = data
}

// Drop removes the buffer at frag from the cache (block freed): at once,
// unless a read is still filling it, which unmaps it as the fill lands. A
// write still in flight from it keeps its source.
func (c *Cache) Drop(frag int64) {
	c.setLost(frag, false)
	b := c.Lookup(frag)
	if b == nil {
		return
	}
	b.Dirty = false
	b.Pinned = false
	b.invalid = true
	if b.reading != nil {
		// A read is still filling this buffer; it unmaps at completion.
		return
	}
	// Remove immediately so the fragments can be re-cached by a new owner;
	// any write still in flight from the old buffer keeps its source (b's
	// storage among them, kept until the write lands) and is ordered
	// before the new owner's writes by the driver's conflict rule.
	c.remove(b)
}

// Lookup returns the resident buffer at frag, or nil (no I/O, no waiting).
func (c *Cache) Lookup(frag int64) *Buf { return c.bufs.Get(frag) }

// Lost reports whether the cache abandoned a write of the buffer starting at
// frag after repeated failures: its contents never reached the media, yet
// the buffer reads as clean. The verdict holds, whether or not the buffer
// stays resident, until a later write from frag succeeds or frag is dropped.
func (c *Cache) Lost(frag int64) bool { return c.lost != nil && c.lost.Get(frag) }

// setLost records or clears the abandoned-write verdict at frag: set when
// the cache abandons a write from frag, cleared by a later successful write
// from it or by its Drop.
func (c *Cache) setLost(frag int64, lost bool) {
	if c.Lost(frag) == lost {
		return
	}
	if c.lost == nil {
		t := sim.NewTable[bool](c.drv.Sectors() / SectorsPerFrag)
		c.lost = &t
	}
	*c.lost.At(frag) = lost
	if lost {
		c.lost.Use(frag)
	} else {
		c.lost.Unuse(frag)
	}
}

// HeldCount reports buffers with outstanding Hold references or a Bread or
// Getblk still handing them out (should be zero whenever no file system
// operation is mid-flight — tests assert it).
func (c *Cache) HeldCount() int {
	n := 0
	for _, b := range c.bufs.All() {
		if *b != nil && (*b).hold > 0 {
			n++
		}
	}
	return n
}

// DirtyCount reports the number of dirty buffers.
func (c *Cache) DirtyCount() int {
	n := 0
	for b := c.lru.next; b != &c.lru; b = b.next {
		if b.Dirty {
			n++
		}
	}
	return n
}

// Bytes reports resident bytes.
func (c *Cache) Bytes() int { return c.bytes }

// makeRoom frees cache space like a real kernel: clean LRU buffers are
// reclaimed immediately; when none remain, a batch of dirty LRU buffers is
// written behind asynchronously and the caller waits for the first
// completion before retrying. Those write-behind requests flow through the
// ordering machinery like any others — which is exactly how ordering
// restrictiveness turns into elapsed time once a workload no longer fits
// in memory.
func (c *Cache) makeRoom(p *sim.Proc, keep *Buf) {
	for tries := 0; c.Bytes() > c.cfg.MaxBytes && tries < 64; tries++ {
		// One walk from the least recently used end, stopping as soon as
		// the cache fits: evict the clean, collect the write-behind batch.
		var dirty [16]*Buf
		ndirty := 0
		var writing *Buf // least recently used candidate with a write in flight
		for b := c.lru.next; b != &c.lru && c.Bytes() > c.cfg.MaxBytes; {
			next := b.next
			if b != keep && !b.Pinned && b.reading == nil {
				if writing == nil && b.InFlight() {
					writing = b
				}
				switch {
				case b.hold > 0: // a holder, or a Getblk or Bread yielding in its own makeRoom
				case !b.Dirty && b.write == nil && b.Dep == nil:
					c.remove(b)
				case b.Dirty && !b.InFlight() && ndirty < len(dirty):
					dirty[ndirty] = b
					ndirty++
				}
			}
			b = next
		}
		if c.Bytes() <= c.cfg.MaxBytes {
			return
		}
		if ndirty == 0 {
			// Everything is pinned, dependency-laden or already in
			// flight; wait for some write to finish if possible.
			if writing == nil || p == nil {
				return // allow transient overshoot rather than deadlock
			}
			sp := obs.SpanOf(p)
			sp.Push(p, obs.StageSyncer)
			writing.write.done.Wait(p)
			sp.Pop(p)
			continue
		}
		// Write-behind the batch and wait for the first completion. An
		// issue can yield (the -CB pool, the copy's CPU time), and meanwhile
		// other processes write, drop or evict buffers: a member is written
		// only if it is still mapped, dirty and not being written.
		var first *dev.Request
		for _, b := range dirty[:ndirty] {
			if b.next == nil || !b.Dirty || b.InFlight() {
				continue
			}
			if r := c.issueWrite(p, b, first == nil); r != nil {
				first = r
			}
		}
		if first != nil {
			if p != nil {
				sp := obs.SpanOf(p)
				sp.Push(p, obs.StageSyncer)
				first.Done.Wait(p)
				sp.Pop(p)
			}
			c.drv.Release(first)
		}
	}
}

// DropClean evicts every clean, idle, unpinned buffer: benchmarks cold-start
// a measurement with it (after a full sync), as a freshly booted machine.
func (c *Cache) DropClean() { c.dropIdle(false) }

// Close drops every idle buffer, dirty or clean, unwritten: its storage
// serves the next cache. Getblk and Bread panic afterwards; the counters
// and Bytes stay readable, and the disk is not touched.
func (c *Cache) Close() { c.dropIdle(true); c.closed = true }

// dropIdle unmaps every buffer no holder, reader or I/O uses — unless all,
// only clean, unpinned ones without scheme state. It walks the eviction
// order, so the order storage goes back to the pool in is deterministic.
func (c *Cache) dropIdle(all bool) {
	for b := c.lru.next; b != &c.lru; {
		next := b.next
		if b.hold == 0 && b.reading == nil && b.write == nil &&
			(all || !b.Dirty && !b.Pinned && b.Dep == nil) {
			c.remove(b)
		}
		b = next
	}
}

// QueueWork appends fn to the workitem queue; the syncer daemon runs it in
// process context on its next wakeup ("within one second").
func (c *Cache) QueueWork(fn func(p *sim.Proc)) { c.work = append(c.work, fn) }

// StartSyncer spawns the syncer daemon process.
func (c *Cache) StartSyncer() {
	c.eng.Spawn("syncer", func(p *sim.Proc) {
		for !c.syncerStop {
			p.Sleep(sim.Second)
			c.SyncerPass(p)
		}
	})
}

// StopSyncer makes the syncer exit after its next pass.
func (c *Cache) StopSyncer() { c.syncerStop = true }

// SyncerPass performs one syncer wakeup: service the workitem queue, then
// sweep one fraction of the cache — write blocks marked on the previous
// visit, mark dirty blocks for the next one.
func (c *Cache) SyncerPass(p *sim.Proc) {
	c.RunWork(p)

	k := c.cfg.SyncerFraction
	frags := c.sweep(c.syncerRound%k, k)
	for _, frag := range frags {
		b := c.Lookup(frag)
		if b == nil {
			continue
		}
		if b.marked && b.Dirty && !b.InFlight() {
			c.issueWrite(p, b, false)
		} else if b.Dirty {
			b.marked = true
		}
	}
	c.fragScratch = frags
	c.syncerRound++
}

// RunWork drains the workitem queue in process context.
func (c *Cache) RunWork(p *sim.Proc) {
	for len(c.work) > 0 {
		w := c.work
		c.work = nil
		for _, fn := range w {
			fn(p)
		}
	}
}

// sweep returns segment seg of k of the mapped fragments in ascending
// order: those of rank [n·seg/k, n·(seg+1)/k) among the n mapped. The rank of
// a set bit of c.mapped is its position in that order, so the segment is
// found by counting bits, not by sorting. The result is a snapshot, taken
// before the sweep issues a write, and the caller's until it hands it back
// through c.fragScratch: issueWrite can yield mid-sweep, buffers mapped
// meanwhile do not join it, and a second sweeper starting meanwhile
// (SyncAll beside the syncer) finds no scratch and gets a slice of its own.
func (c *Cache) sweep(seg, k int) []int64 {
	n := c.nbufs
	lo, hi := n*seg/k, n*(seg+1)/k
	frags := c.fragScratch[:0]
	c.fragScratch = nil
	rank := 0
	for w, word := range c.mapped {
		if rank >= hi {
			break
		}
		if ones := bits.OnesCount64(word); rank+ones <= lo {
			rank += ones
			continue
		}
		for ; word != 0 && rank < hi; word &= word - 1 {
			if rank >= lo {
				frags = append(frags, int64(w)*64+int64(bits.TrailingZeros64(word)))
			}
			rank++
		}
	}
	return frags
}

// SyncAll flushes every dirty buffer and drains workitems until the system
// is quiescent or maxRounds passes elapse. It returns the number of rounds
// used. This is the unmount path benchmarks use to bound an experiment.
func (c *Cache) SyncAll(p *sim.Proc, maxRounds int) int {
	for round := 1; ; round++ {
		c.RunWork(p)
		wrote := false
		frags := c.sweep(0, 1)
		for _, frag := range frags {
			b := c.Lookup(frag)
			if b != nil && b.Dirty && !b.InFlight() {
				c.issueWrite(p, b, false)
				wrote = true
			}
		}
		c.fragScratch = frags
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageQueue)
		c.drv.WaitIdle(p)
		sp.Pop(p)
		c.RunWork(p)
		if !wrote && c.DirtyCount() == 0 && len(c.work) == 0 {
			return round
		}
		if round >= maxRounds {
			return round
		}
	}
}
