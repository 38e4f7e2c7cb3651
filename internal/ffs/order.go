package ffs

import (
	"metaupdate/internal/cache"
	"metaupdate/internal/sim"
)

// Ordering is the strategy interface implemented by every metadata update
// scheme: the five the paper compares (Conventional, Scheduler Flag,
// Scheduler Chains, Soft Updates, No Order), its NVRAM comparison point,
// Journaling and Async Durability. The sequenced-write ones share one
// implementation of the rule hooks, ordering.Sequenced.
//
// A scheme is also its own cache.Hooks, installed by Mount: it embeds
// cache.NopHooks and overrides only the hooks its writes need.
//
// The file system calls the hooks at precisely the points where the paper's
// three ordering rules create update dependencies:
//
//	(1) never reset the old pointer to a resource before the new pointer
//	    has been set,
//	(2) never re-use a resource before nullifying all previous pointers,
//	(3) never point to a structure before it has been initialized.
//
// Call order within one structural change matters and is guaranteed by the
// file system, which states each change once, in the one function that
// calls its hooks:
//
//	block allocation (allocate): AllocInit (new block initialized in
//	    memory, pointer NOT yet set) -> pointer and size stored in owner ->
//	    AllocPtr.
//	link addition (newInode or addLink, then addEntry): AddInode (inode
//	    initialized / link count bumped) -> entry stored in directory block
//	    -> AddEntry. A store that fails gives the link back (dropLink).
//	link removal (removeLink): entry cleared in directory block, or
//	    retargeted in place by an addition -> RemoveEntry; the scheme must
//	    (eventually) call FS.FinishRemove exactly once.
//	block freeing (freeBlocks): pointers cleared in owner buffer ->
//	    FreeBlocks; the scheme must (eventually) call FS.ApplyFree exactly
//	    once.
//
// RemRec and FreeRec are values: a scheme that defers one keeps its own
// copy (DESIGN.md §9). A second FinishRemove or ApplyFree of one record, of
// any copy of it, panics; FS.Unfinished counts the records still owed theirs.
type Ordering interface {
	cache.Hooks
	// Start attaches the scheme to a mounted file system.
	Start(fs *FS)

	AllocInit(p *sim.Proc, rec *AllocRec)
	AllocPtr(p *sim.Proc, rec *AllocRec)
	AddInode(p *sim.Proc, rec *LinkRec)
	AddEntry(p *sim.Proc, rec *LinkRec)
	RemoveEntry(p *sim.Proc, rec RemRec)
	FreeBlocks(p *sim.Proc, rec FreeRec)

	// MetaUpdate covers metadata changes with no ordering requirement
	// (bitmaps, timestamps, sizes). File data is a delayed write under every
	// scheme and reaches none of them.
	MetaUpdate(p *sim.Proc, b *cache.Buf)
}

// FragRun is a contiguous run of fragments.
type FragRun struct {
	Start int32
	N     int
}

// FragRuns is a list of fragment runs held by value: up to four in head, so
// a record carries a small file's runs without a heap object, and past that
// all of them in more. Copies share more: only one copy of a list may Add.
type FragRuns struct {
	head [4]FragRun
	n    int
	more []FragRun
}

// Add appends run.
func (r *FragRuns) Add(run FragRun) {
	if r.more == nil && r.n < len(r.head) {
		r.head[r.n] = run
		r.n++
		return
	}
	if r.more == nil {
		r.more = append([]FragRun(nil), r.head[:]...)
	}
	r.more = append(r.more, run)
}

// All returns the runs in the order they were added.
func (r *FragRuns) All() []FragRun {
	if r.more != nil {
		return r.more
	}
	return r.head[:r.n]
}

// AllocRec describes one block (or fragment-run) allocation.
type AllocRec struct {
	FS *FS

	NewBuf  *cache.Buf // the new block's buffer, initialized in memory
	NewFrag int32      // first fragment of the new run
	NewNFr  int        // run length in fragments
	IsDir   bool       // new block holds directory entries
	IsIndir bool       // new block is an indirect pointer block

	// Owner: where the pointer to the new block lives.
	OwnerBuf     *cache.Buf // inode table block, or indirect block
	OwnerIno     Ino        // inode that owns the pointer
	OwnerIsIndir bool       // pointer lives in an indirect block
	PtrOff       int        // byte offset of the int32 pointer in OwnerBuf.Data
	OldPtr       int32      // prior pointer value (non-zero for fragment moves)
	OldSize      uint64     // inode size before the allocation
	NewSize      uint64     // inode size after (undo target for soft updates)

	// MovedFrom is the fragment run vacated by a fragment extension that
	// had to move the tail to a new location; it must not be re-used until
	// the new pointer is safely on disk (rule 2).
	MovedFrom *FragRun

	// OldBuf is the buffer the new block's contents were copied from on a
	// fragment move (nil otherwise). The copied bytes carry the old
	// buffer's unmet ordering obligations — a scheme tracking per-write
	// dependencies must transfer them, because the new location no longer
	// overlaps the old one and the device's conflict ordering cannot cover
	// it.
	OldBuf *cache.Buf
}

// InitOrdered reports whether the new block must be stable before a pointer
// to it may be (rule 3): always for directory and indirect blocks, as in
// real FFS derivatives; for file data only under Config.AllocInit.
func (rec *AllocRec) InitOrdered() bool {
	return rec.IsDir || rec.IsIndir || rec.FS.cfg.AllocInit
}

// Vacated returns the free of the run a fragment move vacated (one with no
// runs when rec is not a move), for the scheme to apply once the retargeted
// pointer is safe.
func (rec *AllocRec) Vacated() FreeRec {
	v := FreeRec{FS: rec.FS}
	if rec.MovedFrom != nil {
		v.Frags.Add(*rec.MovedFrom)
	}
	return v
}

// LinkRec describes one link addition (create, mkdir, link, rename target).
type LinkRec struct {
	FS *FS

	Ino      Ino
	InoBuf   *cache.Buf // inode table block holding Ino, already updated
	NewInode bool       // inode freshly allocated (vs. existing, for link)

	DirBuf   *cache.Buf // directory block; entry already stored (AddEntry)
	EntryOff int        // byte offset of the entry in DirBuf.Data
}

// RemRec describes one link removal.
type RemRec struct {
	FS *FS

	Ino      Ino // inode the removed entry pointed to
	DirIno   Ino
	DirBuf   *cache.Buf
	EntryOff int // offset the entry occupied

	// LinkOnly restricts FinishRemove to a link-count decrement even when
	// Ino is a directory (directory rename: the old parent loses its ".."
	// reference but is not itself being removed).
	LinkOnly bool

	once recOnce
}

// FreeRec describes freed resources: fragment runs and, optionally, the
// inode itself (when a file is removed, mode has been cleared in OwnerBuf).
type FreeRec struct {
	FS *FS

	OwnerIno Ino
	OwnerBuf *cache.Buf // buffer whose pointers were cleared (inode block)
	Frags    FragRuns
	FreeIno  Ino // 0 if only blocks are being freed

	once recOnce
}

// recOnce follows a RemRec or FreeRec through the "exactly once" half of the
// contract. id names a record handed to the scheme (0: one the file system
// finishes itself), so that finishing another copy of it is caught too;
// done marks this copy finished.
type recOnce struct {
	id   uint64
	done bool
}

// hand gives a record handed to the scheme its id and counts it open.
func (fs *FS) hand() recOnce {
	fs.handed++
	fs.open[fs.handed] = struct{}{}
	return recOnce{id: fs.handed}
}

// finish marks a record's deferred half as run, once.
func (fs *FS) finish(o *recOnce, call string) {
	_, open := fs.open[o.id]
	if o.done || o.id != 0 && !open {
		panic("ffs: " + call + " called twice for one record")
	}
	o.done = true
	delete(fs.open, o.id)
}

// Unfinished reports how many removals and frees the scheme has been handed
// (RemoveEntry, FreeBlocks) and not yet finished; zero once it has drained.
func (fs *FS) Unfinished() int { return len(fs.open) }
