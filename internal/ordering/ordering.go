// Package ordering implements every metadata update scheme compared here,
// each an ffs.Ordering: the paper's No Order (the unsafe delayed-write
// baseline), Conventional synchronous writes, the scheduler-enforced
// ordering flag of section 3.1 (Flag), scheduler chains (Chains, section
// 3.2) and soft updates (SoftUpdates, section 4.2 and the appendix, the
// paper's contribution); NVRAM, the battery-backed log of section 7; and
// two post-paper schemes, write-ahead Journaling and Async Durability.
//
// No Order, Conventional, Scheduler Flag, NVRAM and Journaling differ only
// in the writes they use to keep the three ordering rules, so they share
// one statement of the hook protocol, Sequenced, and supply those writes.
// Chains, Async and Soft Updates do per-hook work of their own and
// implement ffs.Ordering directly. Every scheme is its own cache.Hooks.
package ordering

import (
	"metaupdate/internal/cache"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// Sequenced is the hook protocol of the sequenced-write schemes, stated
// once: which buffer each ffs.Ordering rule hook sends toward stable
// storage, with which kind of write, and when the deferred half of a
// removal (FinishRemove, ApplyFree) may run. A scheme embeds it and supplies
// the two writes that carry ordering; everything without an ordering
// requirement is a delayed write. It has no cache hooks of its own.
type Sequenced struct {
	cache.NopHooks
	fs *ffs.FS

	// ordered is the write a later update depends on: when it returns, that
	// update may be made in memory and can no longer reach stable storage
	// ahead of this one. last is the last write of a series, which nothing
	// waits for (section 6.1: "the last write in a series of metadata
	// updates is asynchronous or delayed").
	ordered, last func(p *sim.Proc, b *cache.Buf)
}

// newSequenced returns the protocol over a scheme's two writes. They are
// bound here, once, not per hook call.
func newSequenced(ordered, last func(p *sim.Proc, b *cache.Buf)) Sequenced {
	return Sequenced{ordered: ordered, last: last}
}

// Start implements ffs.Ordering.
func (s *Sequenced) Start(fs *ffs.FS) { s.fs = fs }

// delay is the delayed write, usable as either write of a scheme.
func (s *Sequenced) delay(p *sim.Proc, b *cache.Buf) { s.fs.Cache().Bdwrite(b) }

// AllocInit implements ffs.Ordering: where the file system wants the new
// block initialized on stable storage before it is pointed to (rule 3), it
// gets the ordered write.
func (s *Sequenced) AllocInit(p *sim.Proc, rec *ffs.AllocRec) {
	if rec.InitOrdered() {
		s.ordered(p, rec.NewBuf)
	} else {
		s.delay(p, rec.NewBuf)
	}
}

// AllocPtr implements ffs.Ordering: the pointer ends the allocation's
// series — unless a fragment move vacated a run, which must not be re-used
// before the retargeted pointer is stable (rule 2).
func (s *Sequenced) AllocPtr(p *sim.Proc, rec *ffs.AllocRec) {
	if rec.MovedFrom == nil {
		s.last(p, rec.OwnerBuf)
		return
	}
	s.ordered(p, rec.OwnerBuf)
	vacated := rec.Vacated()
	rec.FS.ApplyFree(p, &vacated)
}

// AddInode implements ffs.Ordering: the inode (with its new link count) is
// stable before the directory entry can be (rule 3).
func (s *Sequenced) AddInode(p *sim.Proc, rec *ffs.LinkRec) { s.ordered(p, rec.InoBuf) }

// AddEntry implements ffs.Ordering: the entry ends the series.
func (s *Sequenced) AddEntry(p *sim.Proc, rec *ffs.LinkRec) { s.last(p, rec.DirBuf) }

// RemoveEntry implements ffs.Ordering: the cleared entry is ordered, after
// which the link count may be decremented (and the file freed) at once
// (rule 1).
func (s *Sequenced) RemoveEntry(p *sim.Proc, rec ffs.RemRec) {
	s.ordered(p, rec.DirBuf)
	rec.FS.FinishRemove(p, &rec)
}

// FreeBlocks implements ffs.Ordering: the cleared owner is ordered before
// the free maps are updated and the fragments become re-usable (rule 2).
func (s *Sequenced) FreeBlocks(p *sim.Proc, rec ffs.FreeRec) {
	s.ordered(p, rec.OwnerBuf)
	rec.FS.ApplyFree(p, &rec)
}

// MetaUpdate implements ffs.Ordering.
func (s *Sequenced) MetaUpdate(p *sim.Proc, b *cache.Buf) { s.delay(p, b) }

// NoOrder ignores every ordering constraint and uses delayed writes for
// all metadata updates — the paper's baseline and performance goal, with
// the same lack of reliability as the "delayed mount" option it cites.
type NoOrder struct{ Sequenced }

// NewNoOrder returns the No Order scheme.
func NewNoOrder() *NoOrder {
	o := &NoOrder{}
	o.Sequenced = newSequenced(o.delay, o.delay)
	return o
}

// Conventional sequences metadata updates with synchronous writes, the way
// the original UNIX file system and FFS do: the write that later updates
// depend on is synchronous, the last write of each sequence is delayed.
type Conventional struct{ Sequenced }

// NewConventional returns the Conventional scheme.
func NewConventional() *Conventional {
	o := &Conventional{}
	o.Sequenced = newSequenced(o.syncWrite, o.delay)
	return o
}

func (o *Conventional) syncWrite(p *sim.Proc, b *cache.Buf) { o.fs.Cache().Bwrite(p, b) }
