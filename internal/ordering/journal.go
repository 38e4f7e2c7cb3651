package ordering

import (
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
// A transaction is retired once every member buffer's delayed write has
// reached its home location; the durable header (region fragment 0) is
// rewritten before retired space is reused, exactly like a wrapping
// jbd-style log. Crash recovery is fsck.ReplayJournal: scan the committed
// prefix from the durable tail, apply buffer images oldest-first.
type Journal struct {
	fs    *ffs.FS
	drv   *dev.Driver
	start int32 // journal region start fragment (absolute)
	frags int32 // journal region size in fragments
	// maxTxn caps one transaction's footprint so the log always has room
	// to keep committing while older transactions are checkpointed.
	maxTxn int32

	head    int32  // region-relative offset of the next transaction
	nextSeq uint64 // sequence number of the next transaction

	// Durable header state as last written (Format wrote {1, 1}).
	durTailSeq uint64
	durTailOff int32

	// open is the transaction absorbing stable() calls; openSlot maps a
	// member's home fragment to its index in open.homes. Log space for it
	// is reserved as members are added, so closing never blocks.
	open     *jtxn
	openSlot map[int64]int
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

	// lastLog and lastHeader are the newest log and header requests: each
	// log write is chained behind both. inflight counts incomplete log
	// writes.
	lastLog, lastHeader uint64
	inflight            int

	// Submitted log writes in submission order; completed ones are swept
	// back to the pools at the next stable().
	out []outReq

	// Pools: log frames, reclaimed txn structs, and the log write's
	// dependency scratch (valid only during Submit).
	frames  [][]byte
	txnFree []*jtxn
	depsBuf [2]uint64

	// Stats.
	Txns, Wraps, HeaderWrites, Flushes int64
}

// jtxn is one compound transaction. While open, frame holds the begin
// fragment followed by the member images in homes order; once submitted
// the frame belongs to the log request and live counts the members whose
// home write is still outstanding.
type jtxn struct {
	seq     uint64
	off     int32 // region-relative begin fragment
	payload int32 // sum of the member images, fragments
	homes   []jlog.HomeRun
	frame   []byte
	live    int
}

type outReq struct {
	req   *dev.Request
	frame []byte
}

// minJournalFrags is the smallest usable region: header plus one
// block-sized transaction plus headroom so placement can always succeed.
const minJournalFrags = 2*(ffs.BlockFrags+2) + 1

var zeroFrag [ffs.FragSize]byte

// NewJournal returns the journaling scheme. The file system must be
// formatted with a journal region (ffs.FormatParams.JournalFrags) and the
// driver configured with dev.ModeChains.
func NewJournal() *Journal {
	return &Journal{byFrag: make(map[int64][]*jtxn), openSlot: make(map[int64]int)}
}

// Name implements ffs.Ordering.
func (o *Journal) Name() string { return "Journaling" }

// Start implements ffs.Ordering.
func (o *Journal) Start(fs *ffs.FS) {
	o.fs = fs
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

// Hooks implements ffs.Ordering.
func (o *Journal) Hooks() cache.Hooks { return journalHooks{o} }

type journalHooks struct{ o *Journal }

func (journalHooks) OnAccess(*cache.Buf)                   {}
func (journalHooks) BeforeWrite(*cache.Buf, []byte) []byte { return nil }
func (journalHooks) WriteIssued(*cache.Buf, *dev.Request)  {}

// PrepareWrite forces the commit a home write must wait for: a write of a
// buffer that is in the open transaction, or whose stable() is blocked for
// log space (it carries a change whose prerequisites may sit in the open
// transaction), closes the transaction and names the newest log write,
// which by the chain covers every earlier one.
func (h journalHooks) PrepareWrite(b *cache.Buf) {
	o := h.o
	if _, member := o.openSlot[b.Frag]; !member && !slices.Contains(o.stalled, b) {
		return
	}
	o.closeOpen()
	addDep(b, o.lastLog)
}

func (h journalHooks) WriteDone(b *cache.Buf, r *dev.Request) {
	// The buffer's (at least as new) state is at its home location; the
	// submitted transactions holding its image no longer need it replayed.
	h.o.retireFrag(b.Frag)
}

// retireFrag checks frag off in every submitted transaction waiting on it.
func (o *Journal) retireFrag(frag int64) {
	ts := o.byFrag[frag]
	if len(ts) == 0 {
		return
	}
	for _, t := range ts {
		t.live--
	}
	delete(o.byFrag, frag)
}

// stable copies b's current image into the open transaction and submits
// the transaction unless a log write is in flight to absorb behind.
func (o *Journal) stable(p *sim.Proc, b *cache.Buf) {
	o.fs.Cache().Bdwrite(b)
	o.sweep()
	n := int32(b.NFrags())
	for {
		t := o.open
		i, member := o.openSlot[b.Frag]
		if member && t.homes[i].NFrags == n {
			at := int32(1) // past the begin fragment
			for _, h := range t.homes[:i] {
				at += h.NFrags
			}
			copy(t.frame[int(at)*ffs.FragSize:], b.Data)
			break
		}
		if member || len(t.homes) == jlog.MaxHomes ||
			(len(t.homes) > 0 && jlog.TxnFrags(t.payload+n) > o.maxTxn) {
			// Resized member, or the transaction is at its cap.
			o.closeOpen()
			continue
		}
		if _, ok := o.place(jlog.TxnFrags(t.payload + n)); ok {
			o.openSlot[b.Frag] = len(t.homes)
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
	if o.inflight == 0 {
		o.closeOpen()
	}
}

// closeOpen submits the open transaction, if it has members, as one log
// write and starts a new one. It never blocks (the space was reserved as
// members were added), so it may run in engine context.
func (o *Journal) closeOpen() {
	t := o.open
	if len(t.homes) == 0 {
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

	r := o.drv.AllocRequest()
	r.Op = disk.Write
	r.LBN = int64(o.start+off) * cache.SectorsPerFrag
	r.Count = len(t.frame) / disk.SectorSize
	r.Data = t.frame
	o.depsBuf = [2]uint64{o.lastLog, o.lastHeader}
	r.DependsOn = o.depsBuf[:] // read inside Submit only
	o.drv.Submit(r)
	r.DependsOn = nil
	o.out = append(o.out, outReq{req: r, frame: t.frame})
	t.frame = nil
	o.lastLog = r.ID
	o.inflight++
	r.Done.OnFire(o.logWriteDone)

	// Home writeback is ordered behind the commit (rule integrity: a home
	// update on the media implies its transaction replays).
	c := o.fs.Cache()
	for _, h := range t.homes {
		if b := c.Lookup(h.Frag); b != nil {
			addDep(b, r.ID)
		}
		o.byFrag[h.Frag] = append(o.byFrag[h.Frag], t)
	}
	t.live = len(t.homes)
	o.txns = append(o.txns, t)
	o.head = off + size
	o.Txns++
	o.open = o.newTxn()
	clear(o.openSlot)
}

// logWriteDone runs in engine context as a log write completes: with the
// log idle, whatever gathered behind it commits next.
func (o *Journal) logWriteDone() {
	if o.inflight--; o.inflight == 0 {
		o.closeOpen()
	}
}

// sweep recycles completed log writes (requests and frames) from the
// submission-order front.
func (o *Journal) sweep() {
	for len(o.out) > 0 && o.out[0].req.Done.Fired() {
		or := o.out[0]
		o.out[0] = outReq{}
		o.out = o.out[1:]
		o.frames = append(o.frames, or.frame)
		o.drv.Release(or.req)
	}
	if len(o.out) == 0 && cap(o.out) > 64 {
		o.out = nil
	}
}

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
	r := o.drv.AllocRequest()
	r.Op = disk.Write
	r.LBN = int64(o.start) * cache.SectorsPerFrag
	r.Count = len(frame) / disk.SectorSize
	r.Data = frame
	o.drv.Submit(r)
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
	for _, h := range t.homes {
		if !slices.Contains(o.byFrag[h.Frag], t) {
			continue // already home
		}
		b := c.Lookup(h.Frag)
		if b == nil || (!b.Dirty && !b.InFlight()) {
			// Buffer gone (freed) or its state already durable: the image
			// is moot.
			o.retireFrag(h.Frag)
			continue
		}
		if !b.InFlight() {
			o.Flushes++
			c.Bawrite(p, b) // WriteDone checks the fragment off
		}
		wait = b
	}
	if wait != nil {
		c.PrepareModify(p, wait) // blocks until its write completes
	}
}

// newTxn returns an empty transaction holding a begin fragment.
func (o *Journal) newTxn() *jtxn {
	t := &jtxn{}
	if n := len(o.txnFree); n > 0 {
		t = o.txnFree[n-1]
		o.txnFree[n-1] = nil
		o.txnFree = o.txnFree[:n-1]
	}
	*t = jtxn{homes: t.homes[:0], frame: o.getFrame()}
	return t
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

// AllocInit implements ffs.Ordering (journal the initialized block for
// directories, indirect blocks, and data under allocation-initialization).
func (o *Journal) AllocInit(p *sim.Proc, rec *ffs.AllocRec) {
	if rec.IsDir || rec.IsIndir || rec.FS.Config().AllocInit {
		o.stable(p, rec.NewBuf)
	} else {
		rec.FS.Cache().Bdwrite(rec.NewBuf)
	}
}

// AllocPtr implements ffs.Ordering: the retargeting owner write is
// journaled, so replay reinstates the pointer switch before any vacated
// fragment could be seen with two owners (rule 2).
func (o *Journal) AllocPtr(p *sim.Proc, rec *ffs.AllocRec) {
	o.stable(p, rec.OwnerBuf)
	if rec.MovedFrom != nil {
		rec.FS.ApplyFree(p, &ffs.FreeRec{FS: rec.FS, Frags: []ffs.FragRun{*rec.MovedFrom}})
	}
}

// AddInode implements ffs.Ordering.
func (o *Journal) AddInode(p *sim.Proc, rec *ffs.LinkRec) { o.stable(p, rec.InoBuf) }

// AddEntry implements ffs.Ordering.
func (o *Journal) AddEntry(p *sim.Proc, rec *ffs.LinkRec) { o.stable(p, rec.DirBuf) }

// RemoveEntry implements ffs.Ordering.
func (o *Journal) RemoveEntry(p *sim.Proc, rec *ffs.RemRec) {
	o.stable(p, rec.DirBuf)
	rec.FS.FinishRemove(p, rec)
}

// FreeBlocks implements ffs.Ordering: the cleared owner is journaled
// before the fragments become reusable (nullify-before-reuse on replay).
func (o *Journal) FreeBlocks(p *sim.Proc, rec *ffs.FreeRec) {
	o.stable(p, rec.OwnerBuf)
	rec.FS.ApplyFree(p, rec)
}

// MetaUpdate implements ffs.Ordering.
func (o *Journal) MetaUpdate(p *sim.Proc, b *cache.Buf) { o.fs.Cache().Bdwrite(b) }

// DataWrite implements ffs.Ordering.
func (o *Journal) DataWrite(p *sim.Proc, b *cache.Buf) { o.fs.Cache().Bdwrite(b) }
