package ffs

import (
	"metaupdate/internal/sim"
)

// Truncate shrinks ino to newSize bytes. Freed fragments obey rule 2
// through freeBlocks: they are not re-usable until the shrunken inode could
// be durable.
//
// Supported shapes (the substrate's files are dense):
//   - newSize == 0 for any file;
//   - any newSize <= current size while both old and new sizes stay within
//     the direct blocks (files up to 96 KB).
//
// Anything else returns ErrIsDir/ErrNotExist as appropriate or panics on
// misuse in tests; callers needing indirect-aware partial truncation should
// remove and rewrite (as every workload in the paper does).
func (fs *FS) Truncate(p *sim.Proc, ino Ino, newSize uint64) error {
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, ino)
	defer fs.unlockInode(ino)

	ip, ib, ioff, err := fs.getInode(p, ino)
	if err != nil {
		return err
	}
	defer fs.rele(ib)
	if !ip.Allocated() {
		return ErrNotExist
	}
	if ip.IsDir() {
		return ErrIsDir
	}
	if newSize >= ip.Size {
		return nil // grow-by-truncate (holes) unsupported; no-op like before
	}
	if newSize == 0 {
		// Full truncation reuses the freeFile machinery minus the inode
		// free: clear every pointer, keep the inode allocated. On an
		// unreadable indirect block the collected prefix is freed and the
		// rest leaks for fsck's free-map reconciliation.
		var runs FragRuns
		fs.collectRuns(p, &ip, &runs)
		fs.charge(p, fs.cfg.Costs.InodeOp)
		ip = Inode{Mode: ip.Mode, Nlink: ip.Nlink, Gen: ip.Gen}
		fs.freeBlocks(p, ino, &ip, ib, ioff, runs, 0)
		return nil
	}
	if blocksOf(ip.Size) > NDirect {
		return ErrNoSpace // partial truncation across indirects unsupported
	}

	oldBlocks := blocksOf(ip.Size)
	newBlocks := blocksOf(newSize)
	var runs FragRuns
	fs.charge(p, fs.cfg.Costs.InodeOp)
	fs.cache.PrepareModify(p, ib)
	// Whole blocks past the new end.
	for bi := newBlocks; bi < oldBlocks; bi++ {
		if ip.Direct[bi] != 0 {
			runs.Add(FragRun{Start: ip.Direct[bi], N: blockRunLen(ip.Size, bi)})
			ip.Direct[bi] = 0
		}
	}
	// The (new) final block may shed tail fragments.
	if newBlocks > 0 && ip.Direct[newBlocks-1] != 0 {
		oldNF := BlockFrags
		if newBlocks == oldBlocks {
			oldNF = lastBlockFrags(ip.Size)
		}
		newNF := lastBlockFrags(newSize)
		if newNF < oldNF {
			runs.Add(FragRun{
				Start: ip.Direct[newBlocks-1] + int32(newNF),
				N:     oldNF - newNF,
			})
			// Shrink the cached buffer to the surviving fragments so later
			// Breads agree on its size. The freed tail is re-cacheable by
			// its next owner.
			if b := fs.cache.Lookup(int64(ip.Direct[newBlocks-1])); b != nil {
				b.Hold()
				fs.cache.PrepareModify(p, b)
				fs.cache.Resize(b, newNF)
				b.Unhold()
			}
		}
	}
	ip.Size = newSize
	fs.freeBlocks(p, ino, &ip, ib, ioff, runs, 0)
	return nil
}
