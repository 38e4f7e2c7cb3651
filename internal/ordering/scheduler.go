package ordering

import (
	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// Flag is the scheduler-enforced ordering scheme of section 3.1: every
// write the conventional scheme made synchronous becomes an asynchronous
// write with the ordering flag set; the device driver (configured with
// dev.ModeFlag and one of the Full/Back/Part semantics, ± NR) keeps later
// requests from overtaking it. Because the dependent updates are delayed
// writes issued strictly later, the flag semantics guarantee the on-disk
// order — the freed fragments of a removal, for one, are re-usable at once
// because any write to them is issued, and so scheduled, after the flagged
// write of their cleared owner.
//
// The write that carries ordering must be *issued* before the dependent
// block can be flushed, so it is sent to the driver immediately — this is
// precisely why these schemes cannot batch multiple updates to one block
// the way soft updates can.
type Flag struct{ Sequenced }

// NewFlag returns the ordering-flag scheme. The driver must be configured
// with dev.ModeFlag.
func NewFlag() *Flag {
	o := &Flag{}
	o.Sequenced = NewSequenced(o.flagWrite, o.delay)
	return o
}

// flagWrite issues an async write of b with the ordering flag set. If a
// write of b is already in flight (possible without -CB only after waiting,
// with -CB any time), the flag is left pending on the buffer; the re-issued
// write will carry it.
func (o *Flag) flagWrite(p *sim.Proc, b *cache.Buf) {
	c := o.fs.Cache()
	b.WriteFlag = true
	c.Bdwrite(b)
	if r := c.Bawrite(p, b); r != nil {
		c.Driver().Release(r)
	}
}

// Chains is the scheduler-chains scheme of section 3.2: each ordered write
// is asynchronous and tagged with the IDs of the specific requests that
// must complete first, so unrelated requests reorder freely. The file
// system names, per buffer, the outstanding write future dependents must
// wait for (cache.Buf.WriteReq), and — using the paper's better-performing
// second approach to de-allocation — remembers recently freed fragments
// until the write that re-initialized their old owner completes.
type Chains struct {
	cache.NopHooks
	fs *ffs.FS

	// freedPending maps a fragment to the request that clears its old
	// owner's pointer; re-use before that request completes must depend
	// on it (the paper's second, better-performing approach). freedBy
	// lists, per such request, the runs it holds in freedPending.
	freedPending map[int32]uint64
	freedBy      map[uint64]ffs.FragRuns

	// pendingRemove carries the directory-write request ID from
	// RemoveEntry into the FinishRemove updates it orders.
	pendingRemove uint64

	// BarrierFrees selects the paper's first, simpler de-allocation
	// approach for the section 3.2 ablation: the owner write becomes a
	// Part-NR-style barrier (flag set) instead of tracking freed blocks.
	BarrierFrees bool
}

// NewChains returns the scheduler-chains scheme. The driver must be
// configured with dev.ModeChains.
func NewChains() *Chains {
	return &Chains{
		freedPending: make(map[int32]uint64),
		freedBy:      make(map[uint64]ffs.FragRuns),
	}
}

// Start implements ffs.Ordering.
func (o *Chains) Start(fs *ffs.FS) { o.fs = fs }

// WriteDone implements cache.Hooks: fragments whose old owner r cleared
// are free of their obligation.
func (o *Chains) WriteDone(b *cache.Buf, r *dev.Request) {
	runs := o.freedBy[r.ID]
	for _, run := range runs.All() {
		for i := int32(0); i < int32(run.N); i++ {
			if o.freedPending[run.Start+i] == r.ID {
				delete(o.freedPending, run.Start+i)
			}
		}
	}
	delete(o.freedBy, r.ID)
}

// chainWrite issues an async write of b (dependencies accumulated on the
// buffer ride along) and returns the request ID dependents must name. If a
// write was already in flight (non-CB), its ID is returned: the live buffer
// is the write source and modifications waited for the lock, so that write
// carries the current state.
func (o *Chains) chainWrite(p *sim.Proc, b *cache.Buf) uint64 {
	c := o.fs.Cache()
	c.Bdwrite(b)
	if r := c.Bawrite(p, b); r != nil {
		c.Driver().Release(r)
	}
	return b.WriteReq()
}

// addDep records that b's next write must wait for request id.
func addDep(b *cache.Buf, id uint64) {
	if id != 0 {
		b.AddWriteDep(id)
	}
}

// AllocInit implements ffs.Ordering.
func (o *Chains) AllocInit(p *sim.Proc, rec *ffs.AllocRec) {
	// The new block may live on recently freed fragments; its init write
	// (and its owner) must wait for the old owner's clearing write.
	for i := int32(0); i < int32(rec.NewNFr); i++ {
		if id, ok := o.freedPending[rec.NewFrag+i]; ok {
			addDep(rec.NewBuf, id)
			addDep(rec.OwnerBuf, id)
		}
	}
	if rec.OldBuf != nil {
		// Fragment move: the new location's contents were copied from the
		// old buffer, and its unmet ordering obligations come with them.
		// Deps still pending on the old buffer transfer directly; deps
		// already consumed by an in-flight write of the old buffer are
		// covered transitively by naming that write (the move's write no
		// longer overlaps it, so device conflict ordering cannot).
		for _, d := range rec.OldBuf.WriteDeps {
			addDep(rec.NewBuf, d)
		}
		addDep(rec.NewBuf, rec.OldBuf.WriteReq())
	}
	if rec.InitOrdered() {
		id := o.chainWrite(p, rec.NewBuf)
		// The owner's pointer write must follow the initialization.
		addDep(rec.OwnerBuf, id)
	} else {
		rec.FS.Cache().Bdwrite(rec.NewBuf)
	}
}

// AllocPtr implements ffs.Ordering: a fragment move issues the retargeting
// write and remembers the vacated run until it completes, so re-users
// chain behind it (rule 2, the section 3.2 tracking approach).
func (o *Chains) AllocPtr(p *sim.Proc, rec *ffs.AllocRec) {
	if rec.MovedFrom != nil {
		vacated := rec.Vacated()
		o.rememberFreed(o.chainWrite(p, rec.OwnerBuf), &vacated.Frags)
		rec.FS.ApplyFree(p, &vacated)
		return
	}
	rec.FS.Cache().Bdwrite(rec.OwnerBuf)
}

// rememberFreed maps the fragments of runs to ownerReq, the write that
// clears their old owner's pointer, until that write completes (0: it
// already has).
func (o *Chains) rememberFreed(ownerReq uint64, runs *ffs.FragRuns) {
	if ownerReq == 0 {
		return
	}
	held := o.freedBy[ownerReq]
	for _, run := range runs.All() {
		for i := int32(0); i < int32(run.N); i++ {
			o.freedPending[run.Start+i] = ownerReq
		}
		held.Add(run)
	}
	o.freedBy[ownerReq] = held
}

// AddInode implements ffs.Ordering.
func (o *Chains) AddInode(p *sim.Proc, rec *ffs.LinkRec) {
	o.chainWrite(p, rec.InoBuf)
}

// AddEntry implements ffs.Ordering.
func (o *Chains) AddEntry(p *sim.Proc, rec *ffs.LinkRec) {
	addDep(rec.DirBuf, rec.InoBuf.WriteReq())
	rec.FS.Cache().Bdwrite(rec.DirBuf)
}

// RemoveEntry implements ffs.Ordering: the directory write goes out
// asynchronously; the inode updates FinishRemove performs are chained
// behind it through pendingRemove.
func (o *Chains) RemoveEntry(p *sim.Proc, rec ffs.RemRec) {
	id := o.chainWrite(p, rec.DirBuf)
	saved := o.pendingRemove
	o.pendingRemove = id
	rec.FS.FinishRemove(p, &rec)
	o.pendingRemove = saved
}

// FreeBlocks implements ffs.Ordering: the cleared owner (inode block) is
// written with a dependency on the directory write; freed fragments are
// remembered until that write completes so re-users can chain behind it.
func (o *Chains) FreeBlocks(p *sim.Proc, rec ffs.FreeRec) {
	addDep(rec.OwnerBuf, o.pendingRemove)
	if o.BarrierFrees {
		rec.OwnerBuf.WriteFlag = true // barrier fallback (section 3.2 ablation)
	}
	ownerReq := o.chainWrite(p, rec.OwnerBuf)
	if !o.BarrierFrees {
		o.rememberFreed(ownerReq, &rec.Frags)
	}
	rec.FS.ApplyFree(p, &rec)
}

// MetaUpdate implements ffs.Ordering: link-count updates reached through
// FinishRemove inherit the pending directory-write dependency.
func (o *Chains) MetaUpdate(p *sim.Proc, b *cache.Buf) {
	addDep(b, o.pendingRemove)
	o.fs.Cache().Bdwrite(b)
}
