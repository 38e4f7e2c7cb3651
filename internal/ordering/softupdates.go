// Soft updates, the paper's contribution (section 4.2 and the appendix):
// metadata updates use delayed writes, and fine-grained per-update
// dependency records make any dirty block writable at any time — updates
// with pending dependencies are rolled back in the write *source*, so the
// block as written is always consistent with the current on-disk state.
// Rollback operates on a copy of the buffer (the copy-on-write refinement
// the paper's own footnote recommends over in-place undo/redo), so the
// in-memory state is never perturbed and no access inhibition or redo pass
// is needed; the on-disk images are the same either way.
//
// The structure mirrors the appendix:
//
//   - inodeDep       — the "organizational" per-inode structure; its
//     written flag is the addsafe state: link additions wait for it.
//   - allocDirect    — one per pending block/fragment allocation (covering
//     allocdirect, allocindirect and the indirdep safe-copy rollback in a
//     single pointer-undo mechanism), including fragment extension's
//     old-size undo and the moved-fragment free (rule 2).
//   - dirAdd         — one per pending link addition; undone by writing a
//     zero inode number into the entry (the paper's exact technique).
//   - dirrem         — one per link removal, the ffs.RemRec itself; the
//     link count decrement and everything downstream is deferred until the
//     directory block write completes (serviced from the workitem queue).
//   - freeWait       — one per freeblocks/freefile; resources are freed by
//     a workitem after the cleared inode reaches stable storage.
//
// Block de-allocation and link removal follow the paper's deferred
// approach, which is why soft updates can beat even No Order on the remove
// benchmarks: the expensive freeing work leaves the system call path
// entirely.

package ordering

import (
	"encoding/binary"
	"slices"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// SoftStats counts soft-updates activity, for tests and the harness.
type SoftStats struct {
	Rollbacks     int64 // individual updates undone in a write image
	CancelledAdds int64 // add+remove pairs serviced with no disk writes
	Workitems     int64 // deferred tasks queued
}

// SoftUpdates implements ffs.Ordering, whose cache hooks carry its
// rollback (BeforeWrite) and dependency resolution (WriteDone).
type SoftUpdates struct {
	cache.NopHooks
	fs      *ffs.FS
	depBufs int // buffers whose Dep is a bufDep
	Stat    SoftStats

	// Storage a removal reuses (DESIGN.md §9): emptied bufDeps and run
	// workitems.
	spareDeps []*bufDep
	spareWork []*workItem

	// DropEntryDeps is a fault-injection hook for the crash-state model
	// checker: when set, AddEntry registers no dependency at all, so a new
	// directory entry can reach the disk before its target inode — the
	// classic rule-1 violation soft updates exists to prevent. It proves
	// the checker catches a real (seeded) ordering bug; never set it
	// outside tests and cmd/mdcheck's -seed-bug mode.
	DropEntryDeps bool
}

// NewSoftUpdates returns a soft updates instance.
func NewSoftUpdates() *SoftUpdates {
	return &SoftUpdates{}
}

// Start implements ffs.Ordering.
func (s *SoftUpdates) Start(fs *ffs.FS) { s.fs = fs }

// bufDep anchors all dependency state for one buffer (the cache never
// evicts a buffer whose Dep is non-nil, which subsumes the paper's pinning
// of indirect blocks with pending dependencies).
type bufDep struct {
	// Inode-table blocks: per-inode organizational structures.
	inodeDeps map[ffs.Ino]*inodeDep

	// Owner side of allocations: pending allocDirects whose pointer (and,
	// for inode owners, size) live in this buffer.
	allocs []*allocDirect

	// New-block side of allocations: allocDirects waiting for this
	// buffer's contents to reach the disk (the newblk/allocsafe role).
	initOf []*allocDirect

	// Directory blocks: pending link additions by entry offset, and link
	// removals waiting for the next write.
	adds         map[int]*dirAdd
	rems         []ffs.RemRec
	remsInFlight []ffs.RemRec

	// Freeblocks/freefile waiting for this (inode-table) buffer's write.
	frees         []freeWait
	freesInFlight []freeWait
}

func (d *bufDep) empty() bool {
	return len(d.inodeDeps) == 0 && len(d.allocs) == 0 && len(d.initOf) == 0 &&
		len(d.adds) == 0 && len(d.rems) == 0 && len(d.remsInFlight) == 0 &&
		len(d.frees) == 0 && len(d.freesInFlight) == 0
}

type inodeDep struct {
	ino ffs.Ino
	buf *cache.Buf
	// written: the inode's current state (initialization / link count) has
	// reached stable storage — the addsafe condition.
	written bool
	// everWritten: some state of this incarnation has ever reached the
	// disk; when false at free time, no clearing write is needed at all.
	everWritten bool
	inFlight    bool
	waitingAdds []*dirAdd
	// waitingAllocs: allocDirects whose pointer write is gated on this
	// inode reaching the disk (the mkdir-body case: "." and ".." entries
	// live inside a block that is itself a pending allocation, so the
	// block's pointer waits for the entries' target inodes instead of the
	// entries being rolled back).
	waitingAllocs []*allocDirect
}

type allocDirect struct {
	owner          *cache.Buf // where the pointer lives
	ptrOff         int
	oldPtr, newPtr int32
	sizeOff        int // -1 when the owner is an indirect block
	oldSize        uint64
	initDone       bool // new block contents have reached the disk
	// covered: the write currently in flight from the owner carries this
	// allocation's pointer (it was ready at issue time).
	covered bool
	newBuf  *cache.Buf
	// waitInodes: inode states that must reach the disk before the pointer
	// to this block may (see inodeDep.waitingAllocs).
	waitInodes []*inodeDep
	// vacated, the run a fragment move left behind, is freed (rule 2) once
	// this allocation fully resolves; it has no runs when there was no move.
	vacated   ffs.FreeRec
	cancelled bool
}

// ready reports whether the allocation's pointer may appear on disk.
func (ad *allocDirect) ready() bool {
	if !ad.initDone {
		return false
	}
	for _, idep := range ad.waitInodes {
		if !idep.written {
			return false
		}
	}
	return true
}

type dirAdd struct {
	buf     *cache.Buf // directory block
	off     int
	idep    *inodeDep
	inoSafe bool
	covered bool // in the in-flight write's source
}

type freeWait struct {
	rec ffs.FreeRec
	// rems are link removals whose directory block is being freed; the
	// appendix: "Any dependency structures 'owned' by the blocks are
	// considered complete at this point" — they fire when the free does.
	rems []ffs.RemRec
}

// workItem is a task on the cache's workitem queue: finish rems, then apply
// free if free.FS is set. run is bound once; the item is reused once run.
type workItem struct {
	s    *SoftUpdates
	rems []ffs.RemRec
	free ffs.FreeRec
	run  func(p *sim.Proc)
}

func (w *workItem) exec(p *sim.Proc) {
	for i := range w.rems {
		w.rems[i].FS.FinishRemove(p, &w.rems[i])
	}
	if w.free.FS != nil {
		w.free.FS.ApplyFree(p, &w.free)
	}
	w.rems, w.free = w.rems[:0], ffs.FreeRec{}
	w.s.spareWork = append(w.s.spareWork, w)
}

// queue puts a workitem finishing rems, then free, on the cache's queue.
func (s *SoftUpdates) queue(rems []ffs.RemRec, free ffs.FreeRec) {
	var w *workItem
	if n := len(s.spareWork); n > 0 {
		w, s.spareWork = s.spareWork[n-1], s.spareWork[:n-1]
	} else {
		w = &workItem{s: s}
		w.run = w.exec
	}
	w.rems, w.free = append(w.rems, rems...), free
	s.Stat.Workitems++
	s.cache().QueueWork(w.run)
}

func (s *SoftUpdates) dep(b *cache.Buf) *bufDep {
	if d, ok := b.Dep.(*bufDep); ok {
		return d
	}
	return nil
}

func (s *SoftUpdates) ensureDep(b *cache.Buf) *bufDep {
	if d := s.dep(b); d != nil {
		return d
	}
	var d *bufDep
	if n := len(s.spareDeps); n > 0 {
		d, s.spareDeps = s.spareDeps[n-1], s.spareDeps[:n-1]
	} else {
		d = &bufDep{inodeDeps: make(map[ffs.Ino]*inodeDep), adds: make(map[int]*dirAdd)}
	}
	b.Dep = d
	s.depBufs++
	return d
}

// prune drops b's dependency state once it is empty, keeping it for reuse.
func (s *SoftUpdates) prune(b *cache.Buf) {
	if d := s.dep(b); d != nil && d.empty() {
		b.Dep = nil
		s.depBufs--
		s.spareDeps = append(s.spareDeps, d)
	}
}

func (s *SoftUpdates) ensureInodeDep(b *cache.Buf, ino ffs.Ino) *inodeDep {
	d := s.ensureDep(b)
	idep := d.inodeDeps[ino]
	if idep == nil {
		idep = &inodeDep{ino: ino, buf: b}
		d.inodeDeps[ino] = idep
	}
	return idep
}

func (s *SoftUpdates) cache() *cache.Cache { return s.fs.Cache() }

// DepCount reports how many buffers currently carry dependency state
// (zero once every update has drained to the disk).
func (s *SoftUpdates) DepCount() int { return s.depBufs }

// ---------------------------------------------------------------------
// Ordering hooks
// ---------------------------------------------------------------------

// AllocInit implements ffs.Ordering: the new block is a delayed write; when
// ordering applies, an allocDirect records the pointer/size undo state.
func (s *SoftUpdates) AllocInit(p *sim.Proc, rec *ffs.AllocRec) {
	c := rec.FS.Cache()
	c.Bdwrite(rec.NewBuf)
	if !rec.InitOrdered() {
		if rec.MovedFrom != nil {
			// Even without allocation initialization, the vacated run must
			// not be re-used before the retargeted pointer is on disk
			// (rule 2): wait for the owner buffer's next write.
			d := s.ensureDep(rec.OwnerBuf)
			d.frees = append(d.frees, freeWait{rec: rec.Vacated()})
		}
		return
	}
	ad := &allocDirect{
		owner:  rec.OwnerBuf,
		ptrOff: rec.PtrOff,
		oldPtr: rec.OldPtr, newPtr: rec.NewFrag,
		sizeOff: -1,
		oldSize: rec.OldSize,
		newBuf:  rec.NewBuf,
		vacated: rec.Vacated(),
	}
	if !rec.OwnerIsIndir {
		// The size field rides along with direct (inode-owned) pointers.
		ad.sizeOff = inodeBaseOff(rec.OwnerIno) + ffs.InoSizeOff
	}
	// Extension-in-place: the "new block" is the same buffer as before and
	// its earlier fragments are already on disk; the newly added fragments
	// still need initialization. Treat the whole run as needing a write
	// (conservative and simple).
	nd := s.ensureDep(rec.NewBuf)
	nd.initOf = append(nd.initOf, ad)
	od := s.ensureDep(rec.OwnerBuf)
	od.allocs = append(od.allocs, ad)
	rec.NewBuf.Pinned = false
	if rec.IsIndir {
		// Keep indirect blocks with pending dependencies resident and
		// dirty, as the appendix does.
		rec.NewBuf.Pinned = true
	}
}

// inodeBaseOff is the byte offset of inode ino within its table block.
func inodeBaseOff(ino ffs.Ino) int {
	return int(ino) % ffs.InodesPerBlock * ffs.InodeSize
}

// AllocPtr implements ffs.Ordering: the owner is a delayed write; all
// ordering is carried by the allocDirect created in AllocInit.
func (s *SoftUpdates) AllocPtr(p *sim.Proc, rec *ffs.AllocRec) {
	rec.FS.Cache().Bdwrite(rec.OwnerBuf)
}

// AddInode implements ffs.Ordering: delayed write; the inode's addsafe
// state resets so dependent directory entries wait for the next write.
func (s *SoftUpdates) AddInode(p *sim.Proc, rec *ffs.LinkRec) {
	rec.FS.Cache().Bdwrite(rec.InoBuf)
	idep := s.ensureInodeDep(rec.InoBuf, rec.Ino)
	idep.written = false
	if rec.NewInode {
		idep.everWritten = false
	}
}

// AddEntry implements ffs.Ordering.
func (s *SoftUpdates) AddEntry(p *sim.Proc, rec *ffs.LinkRec) {
	rec.FS.Cache().Bdwrite(rec.DirBuf)
	if s.DropEntryDeps {
		return // fault injection: entry may now hit disk before its inode
	}
	idep := s.ensureInodeDep(rec.InoBuf, rec.Ino)
	if idep.written {
		return // inode already safe; the entry carries no dependency
	}
	d := s.ensureDep(rec.DirBuf)
	if len(d.initOf) > 0 {
		// The entry lives inside a block that is itself a pending
		// allocation (a new directory's "." and "..", or an entry in a
		// freshly grown chunk). The block is unreferenced until its
		// pointer is written, so instead of rolling the entry back we
		// gate the pointer on the entry's inode — the paper/FreeBSD
		// mkdir dependency.
		for _, ad := range d.initOf {
			ad.waitInodes = append(ad.waitInodes, idep)
			idep.waitingAllocs = append(idep.waitingAllocs, ad)
		}
		return
	}
	add := &dirAdd{buf: rec.DirBuf, off: rec.EntryOff, idep: idep}
	d.adds[rec.EntryOff] = add
	idep.waitingAdds = append(idep.waitingAdds, add)
}

// RemoveEntry implements ffs.Ordering. If the entry still has a pending
// addition, both are cancelled and the removal completes with no disk
// writes at all; otherwise the removal is deferred until the directory
// block reaches the disk.
func (s *SoftUpdates) RemoveEntry(p *sim.Proc, rec ffs.RemRec) {
	c := rec.FS.Cache()
	c.Bdwrite(rec.DirBuf)
	if d := s.dep(rec.DirBuf); d != nil {
		if add, ok := d.adds[rec.EntryOff]; ok {
			// The add and the remove annihilate.
			delete(d.adds, rec.EntryOff)
			s.dropAdd(add)
			s.Stat.CancelledAdds++
			s.prune(rec.DirBuf)
			rec.FS.FinishRemove(p, &rec)
			return
		}
	}
	d := s.ensureDep(rec.DirBuf)
	d.rems = append(d.rems, rec)
}

func (s *SoftUpdates) dropAdd(add *dirAdd) {
	idep := add.idep
	if i := slices.Index(idep.waitingAdds, add); i >= 0 {
		idep.waitingAdds = slices.Delete(idep.waitingAdds, i, i+1)
	}
	// A fully-resolved organizational structure can go now; nothing will
	// revisit its buffer otherwise.
	if idep.written && !idep.inFlight && len(idep.waitingAdds) == 0 && len(idep.waitingAllocs) == 0 {
		if d := s.dep(idep.buf); d != nil {
			delete(d.inodeDeps, idep.ino)
			s.prune(idep.buf)
		}
	}
}

// FreeBlocks implements ffs.Ordering: pending allocations of the dead file
// are cancelled (they no longer serve any purpose, as the appendix says);
// the freed resources wait for the cleared inode to reach the disk — or
// are released immediately when this incarnation never reached it.
func (s *SoftUpdates) FreeBlocks(p *sim.Proc, rec ffs.FreeRec) {
	c := rec.FS.Cache()
	c.Bdwrite(rec.OwnerBuf)

	// Cancel pending allocations whose pointers lived in the cleared
	// inode (and in the file's indirect blocks, which are being freed).
	s.cancelAllocsFor(&rec)

	// Directory blocks being freed carry their dependencies with them:
	// pending additions are cancelled; pending removals are "considered
	// complete at this point" and fire together with the free itself.
	var orphanRems []ffs.RemRec
	for _, run := range rec.Frags.All() {
		if b := c.Lookup(int64(run.Start)); b != nil {
			if d := s.dep(b); d != nil {
				for _, add := range d.adds {
					s.dropAdd(add)
					s.Stat.CancelledAdds++
				}
				clear(d.adds)
				d.initOf = d.initOf[:0]
				orphanRems = append(orphanRems, d.rems...)
				orphanRems = append(orphanRems, d.remsInFlight...)
				d.rems, d.remsInFlight = d.rems[:0], d.remsInFlight[:0]
				s.prune(b)
			}
			b.Pinned = false
		}
	}

	idep := s.ensureInodeDep(rec.OwnerBuf, rec.OwnerIno)
	idep.written = false // the cleared state is now what must reach disk
	if !idep.everWritten && rec.FreeIno != 0 {
		// Nothing of this incarnation is on disk: free immediately.
		s.deleteInodeDep(rec.OwnerBuf, rec.OwnerIno)
		s.queue(orphanRems, rec)
		return
	}
	d := s.ensureDep(rec.OwnerBuf)
	d.frees = append(d.frees, freeWait{rec: rec, rems: orphanRems})
}

// cancelAllocsFor removes pending allocDirects that no longer serve any
// purpose. An allocation's pointer lives in its owner buffer, so only two
// kinds of owner are visited: the freed inode's table block (its pointers
// go on a full free, or when their block is among the freed runs: partial
// truncation) and each freed indirect block (all of its pointers go). The
// moved-from runs those allocations were still holding join rec's runs.
func (s *SoftUpdates) cancelAllocsFor(rec *ffs.FreeRec) {
	freed := rec.Frags.All() // as handed in: the vacated runs that join rec below own no pointers
	fullFree := rec.FreeIno != 0 || allPointersCleared(rec)
	sizeOff := inodeBaseOff(rec.OwnerIno) + ffs.InoSizeOff
	s.cancelAllocs(rec, rec.OwnerBuf, func(ad *allocDirect) bool {
		return ad.sizeOff == sizeOff && (fullFree ||
			slices.ContainsFunc(freed, func(run ffs.FragRun) bool { return run.Start == ad.newPtr }))
	})
	for _, run := range freed {
		if b := s.cache().Lookup(int64(run.Start)); b != nil && b != rec.OwnerBuf {
			s.cancelAllocs(rec, b, nil)
		}
	}
}

// cancelAllocs cancels the allocations whose pointers live in b that mine
// selects (every one for a nil mine).
func (s *SoftUpdates) cancelAllocs(rec *ffs.FreeRec, b *cache.Buf, mine func(*allocDirect) bool) {
	d := s.dep(b)
	if d == nil {
		return
	}
	kept := d.allocs[:0]
	for _, ad := range d.allocs {
		if mine != nil && !mine(ad) {
			kept = append(kept, ad)
			continue
		}
		ad.cancelled = true
		for _, run := range ad.vacated.Frags.All() {
			rec.Frags.Add(run)
		}
		if nd := s.dep(ad.newBuf); nd != nil {
			nd.initOf = slices.DeleteFunc(nd.initOf, func(a *allocDirect) bool { return a == ad })
			s.prune(ad.newBuf)
		}
	}
	d.allocs = kept
	s.prune(b)
}

// allPointersCleared reports whether rec describes a full truncation (the
// inode's size is zero in the owner buffer image).
func allPointersCleared(rec *ffs.FreeRec) bool {
	base := inodeBaseOff(rec.OwnerIno)
	ip := ffs.DecodeInode(rec.OwnerBuf.Data[base : base+ffs.InodeSize])
	return ip.Size == 0
}

func (s *SoftUpdates) deleteInodeDep(b *cache.Buf, ino ffs.Ino) {
	d := s.dep(b)
	if d == nil {
		return
	}
	if idep := d.inodeDeps[ino]; idep != nil {
		// Allocations gated on this (now vanished) inode must not wait
		// forever: drop the gate and let the pointer write proceed — the
		// entry that created the gate has already been removed.
		for _, ad := range idep.waitingAllocs {
			if i := slices.Index(ad.waitInodes, idep); i >= 0 {
				ad.waitInodes = slices.Delete(ad.waitInodes, i, i+1)
			}
			if !ad.cancelled && ad.ready() {
				ad.owner.Dirty = true
			}
		}
		idep.waitingAllocs = nil
	}
	delete(d.inodeDeps, ino)
	s.prune(b)
}

// MetaUpdate implements ffs.Ordering.
func (s *SoftUpdates) MetaUpdate(p *sim.Proc, b *cache.Buf) { s.cache().Bdwrite(b) }

// ---------------------------------------------------------------------
// Cache hooks: rollback and resolution. Soft updates never orders writes
// in the driver, so PrepareWrite stays the no-op; rollbacks happen in
// write-source copies, so the in-memory buffer is always current.
// ---------------------------------------------------------------------

// BeforeWrite implements cache.Hooks by building the write source: when
// some updates in the buffer still have unresolved dependencies, it returns
// a copy of src with those updates rolled back — the block as written is
// consistent with the current on-disk state, and the live buffer is never
// perturbed (the copy-on-write variant the paper recommends over in-place
// undo/redo).
func (s *SoftUpdates) BeforeWrite(b *cache.Buf, src []byte) []byte {
	d := s.dep(b)
	if d == nil {
		return nil
	}
	var out []byte
	ensure := func() []byte {
		if out == nil {
			out = s.cache().Copy(src)
		}
		return out
	}
	le := binary.LittleEndian

	// Allocation rollback, newest first so chained old values layer.
	for i := len(d.allocs) - 1; i >= 0; i-- {
		ad := d.allocs[i]
		if ad.ready() {
			ad.covered = true
			continue
		}
		ad.covered = false
		cp := ensure()
		le.PutUint32(cp[ad.ptrOff:], uint32(ad.oldPtr))
		if ad.sizeOff >= 0 {
			le.PutUint64(cp[ad.sizeOff:], ad.oldSize)
		}
		s.Stat.Rollbacks++
	}

	// Directory entry rollback: zero the inode number.
	for _, add := range d.adds {
		if add.inoSafe {
			add.covered = true
			continue
		}
		add.covered = false
		cp := ensure()
		le.PutUint32(cp[add.off:], 0)
		s.Stat.Rollbacks++
	}

	// Removals and frees whose state is in this image resolve when it
	// lands.
	d.remsInFlight = append(d.remsInFlight, d.rems...)
	d.rems = d.rems[:0]
	d.freesInFlight = append(d.freesInFlight, d.frees...)
	d.frees = d.frees[:0]

	for _, idep := range d.inodeDeps {
		idep.inFlight = true
	}
	return out
}

// WriteDone implements cache.Hooks: it resolves dependencies covered by the
// completed write, re-dirties buffers whose rolled-back updates may now
// reach the disk, and queues deferred work.
func (s *SoftUpdates) WriteDone(b *cache.Buf, req *dev.Request) {
	// New-block side: allocations whose data this write carried are now
	// initialized on disk.
	if d := s.dep(b); d != nil {
		for _, ad := range d.initOf {
			ad.initDone = true
			// The owner's pointer can now reach the disk (unless still
			// gated on inode writes); make sure the owner gets
			// (re)written so the dependency resolves.
			if ad.ready() {
				ad.owner.Dirty = true
			}
		}
		d.initOf = d.initOf[:0]
	}

	d := s.dep(b)
	if d == nil {
		return
	}

	// Owner side: allocations whose pointer the completed write carried
	// are resolved; rolled-back ones stay pending (the buffer re-dirties
	// when their dependencies resolve, or below if they already have).
	kept := d.allocs[:0]
	var resolved []*allocDirect
	for _, ad := range d.allocs {
		if ad.covered && ad.ready() {
			resolved = append(resolved, ad)
			continue
		}
		if ad.ready() {
			// Became ready while the rolled-back write was in flight.
			b.Dirty = true
		}
		kept = append(kept, ad)
	}
	d.allocs = kept
	for _, ad := range resolved {
		if len(ad.vacated.Frags.All()) > 0 {
			s.queue(nil, ad.vacated)
		}
	}

	// Directory entries: the ones the write carried resolve; rolled-back
	// ones whose inode became safe mid-flight re-dirty the block.
	for off, add := range d.adds {
		if add.covered && add.inoSafe {
			delete(d.adds, off)
			s.dropAdd(add)
			continue
		}
		if add.inoSafe {
			b.Dirty = true
		}
	}

	// Inode addsafe state: anything in flight is now on disk.
	for _, idep := range d.inodeDeps {
		if !idep.inFlight {
			continue
		}
		idep.inFlight = false
		idep.written = true
		idep.everWritten = true
		for _, add := range idep.waitingAdds {
			add.inoSafe = true
			// The entry may now reach the disk; re-dirty its block so the
			// next flush carries it for real. (The paper leaves this to
			// the next access or a 15-second workitem; we do it eagerly —
			// the block must be rewritten either way, and eager re-dirty
			// keeps explicit sync convergent.)
			add.buf.Dirty = true
		}
		for _, ad := range idep.waitingAllocs {
			if !ad.cancelled && ad.ready() {
				ad.owner.Dirty = true
			}
		}
		idep.waitingAllocs = nil
	}

	// Deferred link removals and frees covered by this write.
	for i := range d.remsInFlight {
		s.queue(d.remsInFlight[i:i+1], ffs.FreeRec{})
	}
	d.remsInFlight = d.remsInFlight[:0]
	for _, fw := range d.freesInFlight {
		s.queue(fw.rems, fw.rec)
	}
	d.freesInFlight = d.freesInFlight[:0]

	// Sweep fully-resolved organizational structures.
	for ino, idep := range d.inodeDeps {
		if idep.written && !idep.inFlight && len(idep.waitingAdds) == 0 && len(idep.waitingAllocs) == 0 {
			delete(d.inodeDeps, ino)
		}
	}
	// An indirect block stays pinned only while it carries dependencies.
	if b.Pinned && len(d.initOf) == 0 && len(d.allocs) == 0 {
		b.Pinned = false
	}
	s.prune(b)
}
