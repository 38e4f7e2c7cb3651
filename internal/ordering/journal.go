package ordering

import (
	"bytes"
	"fmt"
	"slices"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/jlog"
	"metaupdate/internal/sim"
)

// Journal is the write-ahead journaling scheme — the classic alternative
// the paper could not benchmark (section 6 discusses it as related work).
// All file system updates stay delayed writes, but at every point where
// the ordering rules would demand a sequenced disk write, the scheme
// instead copies the affected buffer's current image into the one open
// compound transaction (jbd-style: journaling a buffer again overwrites
// its slot). The transaction reaches the wrapping on-disk log region as a
// single contiguous write
//
//	[ begin | buffer images ... | commit ]
//
// submitted at once when no log write is in flight; otherwise it keeps
// absorbing images until the in-flight one completes, it reaches its size
// or jlog.MaxHomes cap, or a home write of one of its buffers is about to
// be issued (group commit with no timer). The commit record carries a
// CRC32 over the begin sector and payload and sits in the write's last
// fragment, so a torn write (any strict sector prefix) discards the whole
// transaction on replay; each log write depends (dev.ModeChains) on its
// predecessor, so durable commits always form a contiguous sequence
// prefix. Home-location writeback is ordered behind the commit: a member
// buffer's next write names the log request, so a crash image can never
// hold a home update whose transaction is not replayable.
//
// The log holds differences: as a transaction is submitted each member
// image is trimmed to the span of fragments that changed since the newest
// image of the same buffer an unretired transaction holds (prev; none after
// a home write, so that journaling is whole), and replaying any committed
// prefix still rebuilds the buffer's last committed image byte for byte.
// And the commit is the durability point: fsync (WaitDurable) journals the
// inode block and waits for the commit that carries it, shared with every
// fsync that gathered behind the same log write. DESIGN.md §15 argues both.
//
// A transaction is retired once every member buffer's delayed write has
// reached its home location; the durable header (region fragment 0) is
// rewritten before retired space is reused, exactly like a wrapping
// jbd-style log. Crash recovery is package fsck's journal replay: scan the
// committed prefix from the durable tail, apply buffer images oldest-first.
type Journal struct {
	Sequenced // every ordered write, and the last of a series, is stable()

	drv   *dev.Driver
	start int32 // journal region start fragment (absolute)
	frags int32 // journal region size in fragments
	// maxTxn caps one transaction's footprint so the log always has room
	// to keep committing while older transactions are checkpointed.
	maxTxn int32

	head    int32  // region-relative offset of the next transaction
	nextSeq uint64 // sequence number of the next transaction
	// doneSeq is the newest transaction whose log write has completed.
	doneSeq uint64

	// Durable header state as last written (Format wrote {1, 1}).
	durTailSeq uint64
	durTailOff int32

	// open is the transaction absorbing stable() calls. Log space for the
	// whole images is reserved as members are added, so closing never
	// blocks.
	open *jtxn
	// stalled holds the arguments of stable() calls blocked for log space:
	// they carry a change that is not journaled yet.
	stalled []*cache.Buf

	// Submitted, unreclaimed transactions in sequence order. The front is
	// the durable tail; entries leave only in reclaim, which rewrites the
	// header.
	txns []*jtxn
	// byFrag indexes submitted transactions by the home fragments they
	// still wait on: any completed write of that buffer checks them off.
	byFrag map[int64][]*jtxn
	// prev holds, by home fragment, the newest journaled image of every
	// buffer some unretired transaction waits on: what replay of the log
	// makes of that buffer, and so what the next image is trimmed against.
	prev map[int64]jprev

	// lastLog and lastHeader are the newest log and header requests: each
	// log write is chained behind both.
	lastLog, lastHeader uint64

	// waiters are fsyncs parked until the transaction numbered seq is
	// durable, in seq order; logErr is the first failed log write, after
	// which no later commit is replayable either.
	waiters []jwait
	logErr  error

	// inflight holds the log writes in flight, oldest first. They complete
	// in sequence order (the chain), so each completion is the front one.
	inflight []*dev.Request
	logDone  func() // logWriteDone, bound once

	// Pools: log frames, previous-image slabs (one block each), reclaimed
	// txn structs, and the log write's dependency scratch (valid only
	// during Submit).
	frames  [][]byte
	slabs   [][]byte
	txnFree []*jtxn
	depsBuf [2]uint64

	// Stats.
	Txns, Wraps, HeaderWrites, Flushes int64
}

// jtxn is one compound transaction. While open, frame holds the begin
// fragment followed by the whole images of the member buffers bufs, and
// homes[i] names all of bufs[i]; closeOpen trims homes to the on-disk runs
// and drops the members left with none. Once submitted the frame belongs
// to the log request and live counts the members whose home write is
// still outstanding.
type jtxn struct {
	seq     uint64
	off     int32 // region-relative begin fragment
	payload int32 // sum of the homes, fragments
	bufs    []*cache.Buf
	homes   []jlog.HomeRun
	frame   []byte
	live    int
}

// slot returns the index of the open transaction's member whose home is
// frag, or -1.
func (t *jtxn) slot(frag int64) int {
	return slices.IndexFunc(t.homes, func(h jlog.HomeRun) bool { return h.Frag == frag })
}

// jprev is the newest journaled image of buf, in a pooled slab.
type jprev struct {
	buf *cache.Buf
	img []byte
}

type jwait struct {
	seq uint64
	c   *sim.Completion
}

// minJournalFrags is the smallest usable region: header plus one
// block-sized transaction plus headroom so placement can always succeed.
const minJournalFrags = 2*(ffs.BlockFrags+2) + 1

var zeroFrag [ffs.FragSize]byte

// NewJournal returns the journaling scheme. The file system must be
// formatted with a journal region (ffs.FormatParams.JournalFrags) and the
// driver configured with dev.ModeChains.
func NewJournal() *Journal {
	o := &Journal{byFrag: make(map[int64][]*jtxn), prev: make(map[int64]jprev)}
	o.Sequenced = newSequenced(o.stable, o.stable)
	o.logDone = o.logWriteDone
	return o
}

// Start implements ffs.Ordering.
func (o *Journal) Start(fs *ffs.FS) {
	o.Sequenced.Start(fs)
	o.drv = fs.Cache().Driver()
	sb := fs.Superblock()
	if sb.JournalFrags < minJournalFrags {
		panic(fmt.Sprintf("ordering: journaling needs a journal region of at least %d frags (have %d); format with FormatParams.JournalFrags",
			minJournalFrags, sb.JournalFrags))
	}
	o.start = sb.JournalStart
	o.frags = sb.JournalFrags
	o.maxTxn = max((o.frags-1)/4, jlog.TxnFrags(ffs.BlockFrags))
	o.head = 1
	o.nextSeq = 1
	o.durTailSeq, o.durTailOff = 1, 1
	o.open = o.newTxn()
}

// PrepareWrite implements cache.Hooks by forcing the commit a home write
// must wait for: a write of a buffer that is in the open transaction, or
// whose stable() is blocked for log space (it carries a change whose
// prerequisites may sit in the open transaction), closes the transaction
// and names the newest log write, which by the chain covers every earlier
// one.
func (o *Journal) PrepareWrite(b *cache.Buf) {
	if o.open.slot(b.Frag) < 0 && !slices.Contains(o.stalled, b) {
		return
	}
	o.closeOpen()
	addDep(b, o.lastLog)
}

// WriteDone implements cache.Hooks: the buffer's (at least as new) state is
// at its home location; the submitted transactions holding its image no
// longer need it replayed.
func (o *Journal) WriteDone(b *cache.Buf, r *dev.Request) { o.retireFrag(b.Frag) }

// retireFrag checks frag off in every submitted transaction waiting on it.
// With no unretired image left the buffer's next journaling is whole.
func (o *Journal) retireFrag(frag int64) {
	ts := o.byFrag[frag]
	if len(ts) == 0 {
		return
	}
	for _, t := range ts {
		t.live--
	}
	delete(o.byFrag, frag)
	if pv, ok := o.prev[frag]; ok {
		o.slabs = append(o.slabs, pv.img)
		delete(o.prev, frag)
	}
}

// stable copies b's current image into the open transaction and submits
// the transaction unless a log write is in flight to absorb behind. It is
// both of the scheme's writes: the retargeted owner of a fragment move and
// the cleared owner of a free are in the log before the fragments become
// reusable, so replay reinstates the pointer switch before a vacated
// fragment could be seen with two owners (rule 2, nullify-before-reuse on
// replay), and the last write of a series is journaled like the rest.
func (o *Journal) stable(p *sim.Proc, b *cache.Buf) {
	o.fs.Cache().Bdwrite(b)
	n := int32(b.NFrags())
	for {
		t := o.open
		i := t.slot(b.Frag)
		if i >= 0 && t.homes[i].NFrags == n {
			at := int32(1) // past the begin fragment
			for _, h := range t.homes[:i] {
				at += h.NFrags
			}
			copy(t.frame[int(at)*ffs.FragSize:], b.Data)
			t.bufs[i] = b
			break
		}
		if i >= 0 || len(t.homes) == jlog.MaxHomes ||
			(len(t.homes) > 0 && jlog.TxnFrags(t.payload+n) > o.maxTxn) {
			// Resized member, or the transaction is at its cap.
			o.closeOpen()
			continue
		}
		if _, ok := o.place(jlog.TxnFrags(t.payload + n)); ok {
			t.bufs = append(t.bufs, b)
			t.homes = append(t.homes, jlog.HomeRun{Frag: b.Frag, NFrags: n})
			t.frame = append(t.frame, b.Data...)
			t.payload += n
			break
		}
		// Log full: checkpoint in process context, then look again — the
		// open transaction may have changed hands meanwhile.
		o.stalled = append(o.stalled, b)
		if !o.reclaim(p) {
			o.flushOldest(p)
		}
		i = slices.Index(o.stalled, b)
		o.stalled = slices.Delete(o.stalled, i, i+1)
	}
	if len(o.inflight) == 0 {
		o.closeOpen()
	}
}

// closeOpen trims the open transaction's member images to what changed,
// submits what is left as one log write and starts a new transaction. It
// never blocks (space for the whole images was reserved as members were
// added), so it may run in engine context.
func (o *Journal) closeOpen() {
	t := o.open
	if len(t.bufs) == 0 {
		return
	}
	rd, wr, k := ffs.FragSize, ffs.FragSize, 0
	t.payload = 0
	for i, b := range t.bufs {
		img := t.frame[rd : rd+int(t.homes[i].NFrags)*ffs.FragSize]
		rd += len(img)
		lo, hi := o.trim(b, img)
		if lo == hi {
			continue
		}
		t.bufs[k] = b
		t.homes[k] = jlog.HomeRun{Frag: b.Frag + int64(lo), NFrags: int32(hi - lo)}
		k++
		wr += copy(t.frame[wr:], img[lo*ffs.FragSize:hi*ffs.FragSize])
		t.payload += int32(hi - lo)
	}
	clear(t.bufs[k:])
	t.bufs, t.homes, t.frame = t.bufs[:k], t.homes[:k], t.frame[:wr]
	if k == 0 {
		// Every image is already in the log: whoever waits for this
		// transaction waits for the newest one submitted.
		for i := len(o.waiters); i > 0 && o.waiters[i-1].seq == o.nextSeq; i-- {
			o.waiters[i-1].seq--
		}
		o.wake()
		return
	}
	size := jlog.TxnFrags(t.payload)
	off, ok := o.place(size)
	if !ok {
		panic("ordering: open journal transaction lost its reserved log space")
	}
	if off < o.head {
		o.Wraps++
	}
	t.seq, t.off = o.nextSeq, off
	o.nextSeq++

	images := len(t.frame)
	t.frame = append(t.frame, zeroFrag[:]...) // the commit fragment
	begin := t.frame[:ffs.FragSize]
	jlog.EncodeBegin(begin, t.seq, t.homes)
	jlog.EncodeCommit(t.frame[images:], t.seq, t.payload, jlog.Checksum(begin, t.frame[ffs.FragSize:images]))

	o.depsBuf = [2]uint64{o.lastLog, o.lastHeader}
	r := o.logWrite(off, t.frame, o.depsBuf[:])
	t.frame = nil
	o.inflight = append(o.inflight, r)
	o.lastLog = r.ID
	r.Done.OnFire(o.logDone)

	// Home writeback is ordered behind the commit (rule integrity: a home
	// update on the media implies its transaction replays).
	c := o.fs.Cache()
	for _, m := range t.bufs {
		if b := c.Lookup(m.Frag); b != nil {
			addDep(b, r.ID)
		}
		o.byFrag[m.Frag] = append(o.byFrag[m.Frag], t)
	}
	t.live = len(t.bufs)
	o.txns = append(o.txns, t)
	o.head = off + size
	o.Txns++
	o.open = o.newTxn()
}

// trim returns the span [lo, hi) of fragments in which img, b's image as
// it enters the log, differs from the newest image of b an unretired
// transaction holds, and makes img that newest image. With no such image
// to compare (the first journaling since b's last home write, a new buffer
// at the address, a resized one) the span is all of img.
func (o *Journal) trim(b *cache.Buf, img []byte) (lo, hi int) {
	hi = len(img) / ffs.FragSize
	pv, ok := o.prev[b.Frag]
	if !ok || pv.buf != b || len(pv.img) != len(img) {
		if !ok {
			pv.img = o.getSlab()
		}
		pv = jprev{buf: b, img: pv.img[:len(img)]}
		copy(pv.img, img)
		o.prev[b.Frag] = pv
		return 0, hi
	}
	const fs = ffs.FragSize
	for lo < hi && bytes.Equal(img[lo*fs:(lo+1)*fs], pv.img[lo*fs:(lo+1)*fs]) {
		lo++
	}
	for hi > lo && bytes.Equal(img[(hi-1)*fs:hi*fs], pv.img[(hi-1)*fs:hi*fs]) {
		hi--
	}
	copy(pv.img[lo*fs:hi*fs], img[lo*fs:hi*fs])
	return lo, hi
}

// logWrite submits frame as one write at region-relative fragment off,
// chained behind deps (read inside Submit only). The caller holds the
// request's one reference.
func (o *Journal) logWrite(off int32, frame []byte, deps []uint64) *dev.Request {
	r := o.drv.AllocRequest()
	r.Op = disk.Write
	r.LBN = int64(o.start+off) * cache.SectorsPerFrag
	r.Count = len(frame) / disk.SectorSize
	r.Data = frame
	r.DependsOn = deps
	o.drv.Submit(r)
	r.DependsOn = nil
	return r
}

// logWriteDone runs in engine context as a log write completes: the
// fsyncs waiting for it wake, with the log idle whatever gathered behind
// it commits next, and the write's frame and request go back to the pools.
// The request is released last: released before closeOpen it could come
// back from the driver's pool as the next log write while its completion
// is still firing.
func (o *Journal) logWriteDone() {
	r := o.inflight[0]
	o.inflight = slices.Delete(o.inflight, 0, 1)
	if r.Err != nil && o.logErr == nil {
		o.logErr = fmt.Errorf("journal commit %d: %w", o.doneSeq+1, r.Err)
	}
	o.doneSeq++
	o.wake()
	if len(o.inflight) == 0 {
		o.closeOpen()
	}
	o.frames = append(o.frames, r.Data)
	o.drv.Release(r)
}

// wake fires the waiters of every transaction whose log write is done.
func (o *Journal) wake() {
	n := 0
	for n < len(o.waiters) && o.waiters[n].seq <= o.doneSeq {
		o.waiters[n].c.Fire(o.fs.Engine())
		n++
	}
	o.waiters = slices.Delete(o.waiters, 0, n)
}

// WaitDurable implements ffs.DurabilityWaiter: fsync at the commit. The
// file's dirty data and indirect buffers go home as one asynchronous batch
// (data is not journaled); the inode block's current image — sizes reach
// it through MetaUpdate, which does not journal — joins the open
// transaction, and the caller waits for that transaction's commit and for
// the data. Concurrent fsyncs gather behind one log write and share the
// next, and the inode block's home write is left to the syncer.
func (o *Journal) WaitDurable(p *sim.Proc, ino ffs.Ino, frags []int64) error {
	c := o.fs.Cache()
	sb := o.fs.Superblock()
	iblk, _ := sb.InodeFrag(ino)
	var data []*dev.Request // each holds a reference, dropped once read
	for _, frag := range frags {
		b := c.Lookup(frag)
		if b == nil || frag == int64(iblk) {
			continue
		}
		// A write in flight carries b as it stands (no -CB); if it fails,
		// or was refused a successor, b is dirty afterwards.
		c.PrepareModify(p, b)
		if b.Dirty {
			if r := c.Bawrite(p, b); r != nil {
				data = append(data, r)
			}
		}
	}
	if ib := c.Lookup(int64(iblk)); ib != nil && !ib.Settled() {
		// Held: stable reads its bytes again after waiting for log space.
		o.stable(p, ib.Hold())
		ib.Unhold()
	}
	// Everything journaled so far is durable once the open transaction
	// commits or, if that is empty, the newest submitted one has.
	seq := o.nextSeq - 1
	if len(o.open.bufs) > 0 {
		seq = o.nextSeq
	}
	if seq > o.doneSeq {
		if n := len(o.waiters); n == 0 || o.waiters[n-1].seq != seq {
			o.waiters = append(o.waiters, jwait{seq: seq, c: sim.NewCompletion()})
		}
		o.waiters[len(o.waiters)-1].c.Wait(p)
	}
	err := o.logErr
	for _, r := range data {
		r.Done.Wait(p)
		if err == nil {
			err = r.Err
		}
		o.drv.Release(r)
	}
	return err
}

var _ ffs.DurabilityWaiter = (*Journal)(nil)

// place finds a spot for `size` fragments between the durable tail and
// the head, honouring the no-straddle rule (wrap to offset 1). It is a
// pure query: space found for the open transaction stays available until
// the transaction is placed, because only closeOpen moves the head and
// the tail only ever frees space.
func (o *Journal) place(size int32) (int32, bool) {
	if len(o.txns) == 0 {
		if o.head+size > o.frags {
			return 1, true
		}
		return o.head, true
	}
	tail := o.txns[0].off
	switch {
	case o.head == tail: // full
		return 0, false
	case o.head > tail:
		if o.head+size <= o.frags {
			return o.head, true
		}
		if 1+size <= tail {
			return 1, true
		}
		return 0, false
	default: // head < tail
		if o.head+size <= tail {
			return o.head, true
		}
		return 0, false
	}
}

// reclaim pops retired transactions off the tail; when any space was
// freed it rewrites the durable header and waits for it. Log writes
// submitted meanwhile are chained behind the header write, so replay
// never scans reclaimed-and-reused fragments.
func (o *Journal) reclaim(p *sim.Proc) bool {
	popped := false
	for len(o.txns) > 0 && o.txns[0].live == 0 {
		t := o.txns[0]
		o.txns[0] = nil
		o.txns = o.txns[1:]
		o.txnFree = append(o.txnFree, t)
		popped = true
	}
	if !popped {
		return false
	}
	if len(o.txns) == 0 && cap(o.txns) > 64 {
		o.txns = nil
	}
	tailSeq, tailOff := o.nextSeq, o.head
	if len(o.txns) > 0 {
		tailSeq, tailOff = o.txns[0].seq, o.txns[0].off
	}
	o.writeHeader(p, tailSeq, tailOff)
	return true
}

// writeHeader rewrites the durable journal header and waits for it.
func (o *Journal) writeHeader(p *sim.Proc, tailSeq uint64, tailOff int32) {
	if tailSeq == o.durTailSeq && tailOff == o.durTailOff {
		return
	}
	frame := o.getFrame()
	jlog.EncodeHeader(frame, jlog.Header{TailSeq: tailSeq, TailOff: tailOff})
	r := o.logWrite(0, frame, nil)
	o.lastHeader = r.ID
	r.Done.Wait(p)
	o.frames = append(o.frames, frame)
	o.drv.Release(r)
	o.durTailSeq, o.durTailOff = tailSeq, tailOff
	o.HeaderWrites++
}

// flushOldest checkpoints the oldest live transaction (journal
// backpressure): every member buffer still dirty goes to its home location
// in one asynchronous batch, and the caller waits for one of them. Nothing
// is held across the wait — the log may look different when it returns —
// so the caller loops until the transaction retires. A write that fails is
// retried by the cache like any other and, once abandoned, found moot here.
func (o *Journal) flushOldest(p *sim.Proc) {
	t := o.txns[0] // reclaim failed, so the front is live
	c := o.fs.Cache()
	var wait *cache.Buf
	for _, m := range t.bufs {
		if !slices.Contains(o.byFrag[m.Frag], t) {
			continue // already home
		}
		b := c.Lookup(m.Frag)
		if b == nil || b.Settled() {
			// Buffer gone (freed) or its state already durable: the image
			// is moot.
			o.retireFrag(m.Frag)
			continue
		}
		if !b.InFlight() {
			o.Flushes++
			if r := c.Bawrite(p, b); r != nil { // WriteDone checks the fragment off
				o.drv.Release(r)
			}
		}
		wait = b
	}
	if wait != nil {
		c.PrepareModify(p, wait) // blocks until its write completes
	}
}

// newTxn returns an empty transaction holding a begin fragment.
func (o *Journal) newTxn() *jtxn {
	var t *jtxn
	if n := len(o.txnFree); n > 0 {
		t, o.txnFree = o.txnFree[n-1], o.txnFree[:n-1]
	} else {
		t = new(jtxn)
	}
	clear(t.bufs)
	*t = jtxn{bufs: t.bufs[:0], homes: t.homes[:0], frame: o.getFrame()}
	return t
}

// getSlab returns a block-sized previous-image slab.
func (o *Journal) getSlab() []byte {
	if n := len(o.slabs); n > 0 {
		s := o.slabs[n-1]
		o.slabs[n-1] = nil
		o.slabs = o.slabs[:n-1]
		return s
	}
	return make([]byte, ffs.BlockSize)
}

// getFrame returns a one-fragment frame (zeroed past the first sector,
// which every encoder overwrites) with whatever capacity its last use
// grew it to.
func (o *Journal) getFrame() []byte {
	if n := len(o.frames); n > 0 {
		f := o.frames[n-1][:ffs.FragSize]
		o.frames[n-1] = nil
		o.frames = o.frames[:n-1]
		clear(f[disk.SectorSize:])
		return f
	}
	return make([]byte, ffs.FragSize, (2*ffs.BlockFrags+2)*ffs.FragSize)
}
