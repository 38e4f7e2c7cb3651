package ffs

import (
	"metaupdate/internal/dev"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// DurabilityWaiter is an optional Ordering capability: a scheme that
// acknowledges durability asynchronously (group commit with completion
// notifications) can make Fsync ride its own notification machinery
// instead of the generic synchronous write-until-clean loop. WaitDurable
// must return only once the current contents of every listed fragment
// (the file's data and indirect blocks that are dirty or being written,
// then its inode-table block) are on stable media or recoverable from it
// (or have become moot — the buffer was dropped or a later write already
// carried the state down). A non-nil error means a write the scheme waited
// for failed: the file is NOT durable.
//
// The distinction is the whole point of decoupled durability: the generic
// loop's synchronous writes stall behind whatever dependency chain the
// driver has accumulated, so one fsync can wait out every pending naming
// operation; a waiter instead joins the next group-commit sweep, and many
// concurrent fsyncs are satisfied by the same batched writes.
type DurabilityWaiter interface {
	WaitDurable(p *sim.Proc, ino Ino, frags []int64) error
}

// Fsync makes ino's current contents and inode durable before returning —
// the paper's SYNCIO semantics ("a SYNCIO flag that tells the file system
// to guarantee that changes are permanent before returning", section 6.1).
// Like POSIX fsync, it covers the file, not the directory entry naming it.
// A write of the file the cache abandoned (cache.Cache.Lost) is an error
// under every scheme, whether it failed before the call or during it.
//
// The implementation works for every ordering scheme: it repeatedly writes
// the file's dirty blocks (data first, so soft-updates allocation
// dependencies resolve), then the inode-table block, and drains the
// workitem queue, until a pass finds nothing left to do. Soft updates may
// roll updates back in intermediate writes; the rounds converge because
// every completed write resolves the dependencies the next rollback would
// need (the scheduler-enforced schemes can instead "encounter lengthy
// delays when a long list of dependent writes has formed" — visible here
// as rounds that wait out the driver queue).
func (fs *FS) Fsync(p *sim.Proc, ino Ino) error {
	sp := fs.begin(p, obs.OpFsync)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, ino)
	defer fs.unlockInode(ino)

	if dw, ok := fs.ord.(DurabilityWaiter); ok {
		return fs.fsyncAwait(p, ino, dw)
	}

	const maxRounds = 24
	for round := 0; round < maxRounds; round++ {
		ip, ib, _, err := fs.getInode(p, ino)
		if err != nil {
			return err
		}
		if !ip.Allocated() {
			fs.rele(ib)
			return ErrNotExist
		}
		wrote := false
		// Flush the file's resident dirty blocks (data and indirect).
		var runs FragRuns
		if err := fs.collectRuns(p, &ip, &runs); err != nil {
			fs.rele(ib)
			return err
		}
		for _, run := range runs.All() {
			b := fs.cache.Lookup(int64(run.Start))
			if b != nil && b.Dirty {
				b.Hold()
				werr := fs.cache.Bwrite(p, b)
				b.Unhold()
				if werr != nil {
					fs.rele(ib)
					return werr
				}
				wrote = true
			}
		}
		// Then the inode itself.
		if ib.Dirty {
			if werr := fs.cache.Bwrite(p, ib); werr != nil {
				fs.rele(ib)
				return werr
			}
			wrote = true
		}
		fs.rele(ib)
		// Deferred completions (soft updates workitems) may re-dirty
		// something; drain them before deciding we are done.
		fs.cache.RunWork(p)
		if !wrote {
			// Re-check the inode block after the workitems: one that
			// finished a removal or a free may have re-dirtied it; if it
			// stays clean, the on-disk state carries everything.
			_, ib2, _, err := fs.getInode(p, ino)
			if err != nil {
				return err
			}
			clean := !ib2.Dirty
			fs.rele(ib2)
			if clean {
				return fs.abandoned(runs.All(), ib2.Frag)
			}
		}
	}
	return nil
}

// fsyncAwait is the DurabilityWaiter fsync path: collect the fragments
// whose current contents constitute the file's persistence (resident data
// and indirect blocks that are dirty or being written, plus the
// inode-table block) and hand them to the scheme's wait. The inode lock is
// held by the caller for the duration, so the registered state is exactly
// the state fsync promises.
func (fs *FS) fsyncAwait(p *sim.Proc, ino Ino, dw DurabilityWaiter) error {
	ip, ib, _, err := fs.getInode(p, ino)
	if err != nil {
		return err
	}
	if !ip.Allocated() {
		fs.rele(ib)
		return ErrNotExist
	}
	var runs FragRuns
	if err := fs.collectRuns(p, &ip, &runs); err != nil {
		fs.rele(ib)
		return err
	}
	var frags []int64
	for _, run := range runs.All() {
		if b := fs.cache.Lookup(int64(run.Start)); b != nil && (b.Dirty || b.InFlight()) {
			frags = append(frags, int64(run.Start))
		}
	}
	if ib.Dirty || ib.InFlight() {
		frags = append(frags, ib.Frag)
	}
	fs.rele(ib)
	if len(frags) > 0 {
		if err := dw.WaitDurable(p, ino, frags); err != nil {
			return err
		}
	}
	return fs.abandoned(runs.All(), ib.Frag)
}

// abandoned returns dev.ErrIO when the cache gave up on a write of one of
// the file's buffers (its runs, then its inode-table block), resident or
// evicted since: their contents never reached the media. It only reads the
// cache's verdicts, so the check costs no simulated time.
func (fs *FS) abandoned(runs []FragRun, inodeFrag int64) error {
	for _, run := range runs {
		if fs.cache.Lost(int64(run.Start)) {
			return dev.ErrIO
		}
	}
	if fs.cache.Lost(inodeFrag) {
		return dev.ErrIO
	}
	return nil
}
