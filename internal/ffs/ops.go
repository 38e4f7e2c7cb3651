package ffs

import (
	"metaupdate/internal/cache"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// User-visible file system operations. Each charges the CPU cost model and
// routes structural changes through the ordering scheme at the points
// described in order.go.
//
// Buffer discipline: getInode/inodeBuf, lookupLocked and dirAddEntry return
// *held* buffers (the classic brelse contract) — the cache will not evict
// them, so pointers stay valid across the virtual-time sleeps inside an
// operation. Every operation releases what it holds before returning.

func validName(name string) error {
	if len(name) == 0 || len(name) > maxNameLen || len(name) >= DirChunk-direntHdr {
		return ErrNameLen
	}
	return nil
}

// rele releases a held buffer (nil-safe).
func (fs *FS) rele(b *cache.Buf) {
	if b != nil {
		b.Unhold()
	}
}

// Lookup resolves name in directory dir.
func (fs *FS) Lookup(p *sim.Proc, dir Ino, name string) (Ino, error) {
	sp := fs.begin(p, obs.OpLookup)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)
	ino, db, _, err := fs.lookupLocked(p, dir, name)
	fs.rele(db)
	return ino, err
}

// dirBlock reads block bi of directory dir and returns its buffer with the
// part of its data the directory's size covers — the step of every walk over
// a directory's entries.
func (fs *FS) dirBlock(p *sim.Proc, dir Ino, dip *Inode, dib *cache.Buf, dioff, bi int) (*cache.Buf, []byte, error) {
	b, err := fs.readBlock(p, dir, dip, dib, dioff, bi)
	if err != nil {
		return nil, nil, err
	}
	return b, b.Data[:min(int(dip.Size)-bi*BlockSize, len(b.Data))], nil
}

// lookupLocked looks name up in dir, block by block through each block's
// index; it returns the entry's inode, the held block buffer and entry
// offset. The caller holds dir's lock and must release the buffer.
func (fs *FS) lookupLocked(p *sim.Proc, dir Ino, name string) (Ino, *cache.Buf, int, error) {
	dip, dib, dioff, err := fs.getInode(p, dir)
	if err != nil {
		return 0, nil, 0, err
	}
	defer fs.rele(dib)
	if !dip.Allocated() {
		return 0, nil, 0, ErrNotExist
	}
	if !dip.IsDir() {
		return 0, nil, 0, ErrNotDir
	}
	for bi := 0; bi < blocksOf(dip.Size); bi++ {
		b, data, err := fs.dirBlock(p, dir, &dip, dib, dioff, bi)
		if err != nil {
			return 0, nil, 0, err
		}
		d, found, scanned := fs.dirIdx.of(dir, b, data).find(data, name)
		fs.charge(p, fs.cfg.Costs.DirScanEntry*sim.Duration(scanned))
		if found {
			return d.Ino, b.Hold(), d.Off, nil
		}
	}
	return 0, nil, 0, ErrNotExist
}

// absent is the prologue of every operation that makes a name: ErrExist when
// dir already has it, nil when it does not.
func (fs *FS) absent(p *sim.Proc, dir Ino, name string) error {
	_, db, _, err := fs.lookupLocked(p, dir, name)
	switch err {
	case nil:
		fs.rele(db)
		return ErrExist
	case ErrNotExist:
		return nil
	}
	return err
}

// dirAddEntry stores (name -> ino) in directory dir, growing it by one
// chunk when full. It returns the held directory block buffer and the
// entry offset. Caller holds dir's lock; the pointed-to inode must already
// be ordered (AddInode) by the caller.
func (fs *FS) dirAddEntry(p *sim.Proc, dir Ino, name string, ino Ino, ftype uint8) (*cache.Buf, int, error) {
	dip, dib, dioff, err := fs.getInode(p, dir)
	if err != nil {
		return nil, 0, err
	}
	defer fs.rele(dib)
	fs.charge(p, fs.cfg.Costs.DirModify)
	for bi := 0; bi < blocksOf(dip.Size); bi++ {
		b, data, err := fs.dirBlock(p, dir, &dip, dib, dioff, bi)
		if err != nil {
			return nil, 0, err
		}
		b.Hold()
		fs.cache.PrepareModify(p, b)
		if off, ok := fs.dirIdx.of(dir, b, data).add(data, name, ino, ftype); ok {
			return b, off, nil
		}
		b.Unhold()
	}
	// Grow the directory by one chunk.
	newSize := dip.Size + DirChunk
	bi := blocksOf(newSize) - 1
	wantNF := lastBlockFrags(newSize)
	chunkStart := (dip.Size % BlockSize)
	b, err := fs.growBlock(p, dir, &dip, dib, dioff, bi, wantNF, newSize, true,
		func(data []byte) {
			initDirChunks(data[chunkStart : chunkStart+DirChunk])
		})
	if err != nil {
		return nil, 0, err
	}
	if fs.cache.Config().CB {
		// allocate may have issued the block's initialization write; a -CB
		// write carries the bytes it was issued with, not this entry.
		// (Without -CB the entry rides it: ROADMAP item 1(h).)
		fs.cache.PrepareModify(p, b)
	}
	data := b.Data[:chunkStart+DirChunk]
	off, ok := fs.dirIdx.of(dir, b, data).add(data, name, ino, ftype)
	if !ok || off < int(chunkStart) {
		// The fresh chunk always fits a new entry at its start.
		panic("ffs: new directory chunk could not hold entry")
	}
	return b.Hold(), off, nil
}

// newInode starts the link addition that makes a file or directory under
// dir: it allocates an inode, initializes it in its table block and calls
// AddInode. The caller releases the record's (held) InoBuf.
func (fs *FS) newInode(p *sim.Proc, dir Ino, mode uint16) (*LinkRec, Inode, int, error) {
	ino, err := fs.allocInode(p)
	if err != nil {
		return nil, Inode{}, 0, err
	}
	ib, ioff, err := fs.inodeBuf(p, ino)
	if err != nil {
		return nil, Inode{}, 0, err
	}
	fs.charge(p, fs.cfg.Costs.InodeOp)
	fs.cache.PrepareModify(p, ib)
	ip := Inode{Mode: mode, Nlink: 1, Gen: DecodeInode(ib.Data[ioff:]).Gen + 1}
	if mode == ModeDir {
		ip.Nlink = 2 // "." and the parent's entry
		fs.assignCG(ino, fs.nextDirCG())
	} else {
		fs.assignCG(ino, fs.preferredCG(dir, nil))
	}
	ip.encode(ib.Data[ioff : ioff+InodeSize])
	rec := &LinkRec{FS: fs, Ino: ino, InoBuf: ib, NewInode: true}
	fs.ord.AddInode(p, rec)
	return rec, ip, ioff, nil
}

// addLink starts a link addition to ino (ip, decoded from ioff in the held
// table block ib): one more link, then AddInode.
func (fs *FS) addLink(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int) *LinkRec {
	ip.Nlink++
	fs.putInode(p, ip, ib, ioff)
	rec := &LinkRec{FS: fs, Ino: ino, InoBuf: ib}
	fs.ord.AddInode(p, rec)
	return rec
}

// addEntry ends a link addition: (name -> rec.Ino) is stored in dir, then
// AddEntry called. If the store fails — the directory had to grow and could
// not — the link rec took is given back.
func (fs *FS) addEntry(p *sim.Proc, rec *LinkRec, dir Ino, name string, ftype uint8) error {
	db, off, err := fs.dirAddEntry(p, dir, name, rec.Ino, ftype)
	if err != nil {
		fs.dropLink(p, rec, dir)
		return err
	}
	fs.entryStored(p, rec, db, off)
	fs.rele(db)
	return nil
}

// entryStored calls AddEntry for rec's entry, already stored at off in the
// held directory block db.
func (fs *FS) entryStored(p *sim.Proc, rec *LinkRec, db *cache.Buf, off int) {
	rec.DirBuf, rec.EntryOff = db, off
	fs.ord.AddEntry(p, rec)
}

// dropLink gives back the link (and a new inode, with what a new directory
// took from its parent) of an addition whose entry never made it into dir:
// the deferred half of a removal, run at once.
func (fs *FS) dropLink(p *sim.Proc, rec *LinkRec, dir Ino) {
	fs.FinishRemove(p, &RemRec{Ino: rec.Ino, DirIno: dir, LinkOnly: !rec.NewInode})
}

// removeLink is link removal: the entry at rec.EntryOff in the held block
// rec.DirBuf is cleared, then RemoveEntry called. With add, the entry is
// instead retargeted in place to add's inode — one sector-atomic store that
// ends that addition and starts the old target's removal, so rule 1 holds
// for the pair.
func (fs *FS) removeLink(p *sim.Proc, rec RemRec, add *LinkRec) {
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, rec.DirBuf)
	if add == nil {
		fs.dirIdx.remove(rec.DirIno, rec.DirBuf, rec.EntryOff)
	} else {
		// The name stays, so the block's index does too.
		setPtr(rec.DirBuf.Data, rec.EntryOff, int32(add.Ino))
		fs.entryStored(p, add, rec.DirBuf, rec.EntryOff)
	}
	rec.FS, rec.once = fs, fs.hand()
	fs.ord.RemoveEntry(p, rec)
}

// Create makes a new regular file in dir.
func (fs *FS) Create(p *sim.Proc, dir Ino, name string) (Ino, error) {
	sp := fs.begin(p, obs.OpCreate)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	if err := validName(name); err != nil {
		return 0, err
	}
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)
	if err := fs.absent(p, dir, name); err != nil {
		return 0, err
	}
	rec, _, _, err := fs.newInode(p, dir, ModeFile)
	if err != nil {
		return 0, err
	}
	defer fs.rele(rec.InoBuf)
	if err := fs.addEntry(p, rec, dir, name, FtypeFile); err != nil {
		return 0, err
	}
	return rec.Ino, nil
}

// Mkdir makes a new directory in dir.
func (fs *FS) Mkdir(p *sim.Proc, dir Ino, name string) (Ino, error) {
	sp := fs.begin(p, obs.OpMkdir)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	if err := validName(name); err != nil {
		return 0, err
	}
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)
	if err := fs.absent(p, dir, name); err != nil {
		return 0, err
	}

	// 1. Initialize the child inode (link count 2: "." and parent entry).
	childRec, cip, cioff, err := fs.newInode(p, dir, ModeDir)
	if err != nil {
		return 0, err
	}
	ino, cib := childRec.Ino, childRec.InoBuf
	defer fs.rele(cib)

	// 2. Bump the parent's link count ("..") before the ".." entry can hit
	// the disk.
	dip, dib, dioff, err := fs.getInode(p, dir)
	if err != nil {
		return 0, err
	}
	defer fs.rele(dib)
	parentRec := fs.addLink(p, dir, &dip, dib, dioff)

	// 3. The child's first directory block, with "." and ".." in place
	// before initialization is ordered.
	var dotOff, dotdotOff int
	cb, err := fs.growBlock(p, ino, &cip, cib, cioff, 0, 1, DirChunk, true,
		func(data []byte) {
			initDirChunks(data[:DirChunk])
			dotOff, _ = addEntryInData(data[:DirChunk], ".", ino, FtypeDir)
			dotdotOff, _ = addEntryInData(data[:DirChunk], "..", dir, FtypeDir)
		})
	if err != nil {
		fs.dropLink(p, childRec, dir)
		return 0, err
	}
	defer fs.rele(cb.Hold())
	fs.entryStored(p, childRec, cb, dotOff)
	fs.entryStored(p, parentRec, cb, dotdotOff)

	// 4. The parent's entry for the child.
	if err := fs.addEntry(p, childRec, dir, name, FtypeDir); err != nil {
		return 0, err
	}
	return ino, nil
}

// Link adds a new name for an existing file (classic hard link).
func (fs *FS) Link(p *sim.Proc, ino Ino, dir Ino, name string) error {
	sp := fs.begin(p, obs.OpLink)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	if err := validName(name); err != nil {
		return err
	}
	fs.lockPair(p, ino, dir)
	defer fs.unlockPair(ino, dir)
	if err := fs.absent(p, dir, name); err != nil {
		return err
	}
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
	return fs.addEntry(p, fs.addLink(p, ino, &ip, ib, ioff), dir, name, FtypeFile)
}

// Unlink removes name (a regular file link) from dir.
func (fs *FS) Unlink(p *sim.Proc, dir Ino, name string) error {
	sp := fs.begin(p, obs.OpUnlink)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)

	ino, db, off, err := fs.lookupLocked(p, dir, name)
	if err != nil {
		return err
	}
	defer fs.rele(db)
	ip, ib, _, err := fs.getInode(p, ino)
	if err != nil {
		return err
	}
	fs.rele(ib)
	if ip.IsDir() {
		return ErrIsDir
	}
	fs.removeLink(p, RemRec{Ino: ino, DirIno: dir, DirBuf: db, EntryOff: off}, nil)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(p *sim.Proc, dir Ino, name string) error {
	sp := fs.begin(p, obs.OpRmdir)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)

	ino, db, off, err := fs.lookupLocked(p, dir, name)
	if err != nil {
		return err
	}
	defer fs.rele(db)
	ip, cib, cioff, err := fs.getInode(p, ino)
	if err != nil {
		return err
	}
	defer fs.rele(cib)
	if !ip.IsDir() {
		return ErrNotDir
	}
	empty, err := fs.dirEmpty(p, ino, &ip, cib, cioff)
	if err != nil {
		return err
	}
	if !empty {
		return ErrNotEmpty
	}
	fs.removeLink(p, RemRec{Ino: ino, DirIno: dir, DirBuf: db, EntryOff: off}, nil)
	return nil
}

func (fs *FS) dirEmpty(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int) (bool, error) {
	for bi := 0; bi < blocksOf(ip.Size); bi++ {
		_, data, err := fs.dirBlock(p, ino, ip, ib, ioff, bi)
		if err != nil {
			return false, err
		}
		live, nonDot := countLive(data)
		fs.charge(p, fs.cfg.Costs.DirScanEntry*sim.Duration(live))
		if nonDot {
			return false, nil
		}
	}
	return true, nil
}

// Rename moves sname in sdir to dname in ddir, a file or a directory, by the
// classic add-then-remove order (rule 1). An existing destination file is
// replaced in place (the sector-atomic overwrite satisfies rule 1 for the
// pair); a directory's destination must not exist, and ddir must not be
// inside the moved directory. A directory that changes parent has its ".."
// retargeted in place the same way — an addition for the new parent, a
// removal for the old — so the old parent's link count falls only after
// the new one rose. A name renamed onto itself is left alone.
func (fs *FS) Rename(p *sim.Proc, sdir Ino, sname string, ddir Ino, dname string) error {
	sp := fs.begin(p, obs.OpRename)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	if err := validName(dname); err != nil {
		return err
	}
	fs.lockPair(p, sdir, ddir)
	defer fs.unlockPair(sdir, ddir)

	ino, sdb, soff, err := fs.lookupLocked(p, sdir, sname)
	if err != nil {
		return err
	}
	defer func() { fs.rele(sdb) }()
	if sdir == ddir && sname == dname {
		return nil
	}
	ip, ib, ioff, err := fs.getInode(p, ino)
	if err != nil {
		return err
	}
	defer fs.rele(ib)
	isDir := ip.IsDir()
	reparent := isDir && sdir != ddir
	if reparent {
		// Cycle check: ddir must not be the moved directory or inside it.
		var inside bool
		if inside, err = fs.isAncestor(p, ino, ddir); inside {
			err = ErrNotEmpty // EINVAL in POSIX; reuse the closest error
		}
	}
	if isDir && err == nil {
		err = fs.absent(p, ddir, dname)
	}
	if err != nil {
		return err
	}

	// Add the new link first (rule 1): the renamed inode gains a transient
	// extra link, and a directory's new parent the ".." reference. The
	// renamed inode is not locked, so it is decoded afresh once its block
	// may be modified.
	fs.cache.PrepareModify(p, ib)
	ip = DecodeInode(ib.Data[ioff:])
	addRec := fs.addLink(p, ino, &ip, ib, ioff)
	var parentRec *LinkRec
	if reparent {
		dip, dib, dioff, err := fs.getInode(p, ddir)
		if err != nil {
			return err
		}
		defer fs.rele(dib)
		parentRec = fs.addLink(p, ddir, &dip, dib, dioff)
	}

	// Then the destination entry: a file's is replaced if it exists.
	var oldIno Ino
	var ddb *cache.Buf
	var doff int
	derr := ErrNotExist
	if !isDir {
		oldIno, ddb, doff, derr = fs.lookupLocked(p, ddir, dname)
	}
	switch derr {
	case nil:
		oldIp, oib, _, gerr := fs.getInode(p, oldIno)
		if gerr == nil {
			fs.rele(oib)
			if oldIp.IsDir() {
				gerr = ErrIsDir
			}
		}
		if gerr != nil {
			fs.rele(ddb)
			fs.dropLink(p, addRec, ddir)
			return gerr
		}
		fs.removeLink(p, RemRec{Ino: oldIno, DirIno: ddir, DirBuf: ddb, EntryOff: doff}, addRec)
		fs.rele(ddb)
	case ErrNotExist:
		ftype := FtypeFile
		if isDir {
			ftype = FtypeDir
		}
		if err := fs.addEntry(p, addRec, ddir, dname, ftype); err != nil {
			if parentRec != nil {
				fs.dropLink(p, parentRec, ino)
			}
			return err
		}
		if db := addRec.DirBuf; sdir == ddir && db != sdb {
			// The add may have grown the directory's last block by moving
			// it (growBlock): db is then the block that holds the old name
			// and sdb the vacated copy, in which a removal would be lost.
			if d, moved, _ := findEntry(db.Data, sname); moved {
				fs.rele(sdb)
				sdb, soff = db.Hold(), d.Off
			}
		}
	default:
		return derr
	}

	// A directory that changes parent: ".." in its first block is retargeted
	// to the new parent. Its inode is decoded afresh again.
	if reparent {
		ip = DecodeInode(ib.Data[ioff:])
		cb, err := fs.readBlock(p, ino, &ip, ib, ioff, 0)
		if err != nil {
			return err
		}
		defer fs.rele(cb.Hold())
		d, found, _ := findEntry(cb.Data[:DirChunk], "..")
		if !found {
			return ErrNotDir
		}
		fs.removeLink(p, RemRec{Ino: sdir, DirIno: ino, DirBuf: cb, EntryOff: d.Off, LinkOnly: true}, parentRec)
	}

	// Remove the old name (its offset is still valid: removals only clear
	// or coalesce within the held buffer); the deferred half drops the
	// transient extra link.
	fs.removeLink(p, RemRec{Ino: ino, DirIno: sdir, DirBuf: sdb, EntryOff: soff, LinkOnly: isDir}, nil)
	return nil
}

// isAncestor reports whether `anc` appears on the ".." chain from `node`
// to the root. The caller must not hold locks on the chain (directory
// tree shape is stable under the caller's sdir/ddir locks for the rename
// use case).
func (fs *FS) isAncestor(p *sim.Proc, anc, node Ino) (bool, error) {
	for node != RootIno {
		if node == anc {
			return true, nil
		}
		ip, ib, ioff, err := fs.getInode(p, node)
		if err != nil {
			return false, err
		}
		if !ip.IsDir() {
			fs.rele(ib)
			return false, ErrNotDir
		}
		b, err := fs.readBlock(p, node, &ip, ib, ioff, 0)
		if err != nil {
			fs.rele(ib)
			return false, err
		}
		d, found, _ := findEntry(b.Data[:DirChunk], "..")
		fs.rele(ib)
		if !found {
			return false, ErrNotDir
		}
		node = d.Ino
	}
	return anc == RootIno, nil
}

// FinishRemove performs the deferred half of a link removal: decrement the
// link count and, at zero, free the file. Ordering schemes call it exactly
// once per RemoveEntry, at the moment their discipline allows, in a process
// that may hold either inode's lock already (DESIGN.md §3).
func (fs *FS) FinishRemove(p *sim.Proc, rec *RemRec) {
	fs.finish(&rec.once, "FinishRemove")
	if !fs.inode(rec.Ino).lock.HeldBy(p) {
		fs.lockInode(p, rec.Ino)
		defer fs.unlockInode(rec.Ino)
	}
	ip, ib, ioff, err := fs.getInode(p, rec.Ino)
	if err != nil {
		// Hook context: nobody to return the error to. The inode stays
		// allocated with a stale link count — exactly the fsck-repairable
		// "link count too high" degradation, left behind.
		return
	}
	defer fs.rele(ib)
	fs.charge(p, fs.cfg.Costs.InodeOp)
	if ip.IsDir() && !rec.LinkOnly {
		// rmdir: the child loses "." and the parent entry; the parent
		// loses "..".
		held := fs.inode(rec.DirIno).lock.HeldBy(p)
		if !held {
			fs.lockInode(p, rec.DirIno)
		}
		// An unreadable parent keeps its stale link count, like the child
		// above.
		if pip, pib, pioff, perr := fs.getInode(p, rec.DirIno); perr == nil {
			pip.Nlink--
			fs.putInode(p, &pip, pib, pioff)
			fs.ord.MetaUpdate(p, pib)
			fs.rele(pib)
		}
		if !held {
			fs.unlockInode(rec.DirIno)
		}
		ip.Nlink = 1 // "." goes with the entry
	}
	ip.Nlink--
	if ip.Nlink > 0 {
		fs.putInode(p, &ip, ib, ioff)
		fs.ord.MetaUpdate(p, ib)
		return
	}
	fs.freeFile(p, rec.Ino, &ip, ib, ioff)
}

// freeFile clears the inode and frees everything it owns (rule 2: nothing
// is re-usable until the cleared inode is on disk). The caller holds the
// inode lock and the (held) inode-table buffer.
func (fs *FS) freeFile(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int) {
	// On an unreadable indirect block: free what was collected, leak the
	// rest (fsck's free-map reconciliation reclaims leaked fragments).
	var runs FragRuns
	fs.collectRuns(p, ip, &runs)
	fs.charge(p, fs.cfg.Costs.InodeOp)
	fs.inode(ino).cg = 0
	if ip.IsDir() {
		fs.dirIdx.drop(ino, runs.All())
	}
	fs.freeBlocks(p, ino, &Inode{Gen: ip.Gen}, ib, ioff, runs, ino)
}

// freeBlocks is block freeing: ip, the inode with its pointers to runs
// cleared, is stored at ioff in the held table block ib, then FreeBlocks
// called — with freeIno, for the inode as well.
func (fs *FS) freeBlocks(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int, runs FragRuns, freeIno Ino) {
	fs.putInode(p, ip, ib, ioff)
	fs.ord.FreeBlocks(p, FreeRec{FS: fs, OwnerIno: ino, OwnerBuf: ib, Frags: runs, FreeIno: freeIno, once: fs.hand()})
}

// WriteAt writes data at byte offset off (sequential appends and in-place
// overwrites; holes are not supported). It extends the file as needed.
func (fs *FS) WriteAt(p *sim.Proc, ino Ino, off uint64, data []byte) error {
	sp := fs.begin(p, obs.OpWrite)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, ino)
	defer fs.unlockInode(ino)
	fs.charge(p, fs.cfg.Costs.PerKBCopy*sim.Duration((len(data)+FragSize-1)/FragSize))

	for len(data) > 0 {
		ip, ib, ioff, err := fs.getInode(p, ino)
		if err != nil {
			return err
		}
		if !ip.Allocated() {
			fs.rele(ib)
			return ErrNotExist
		}
		if ip.IsDir() {
			// write(2) on a directory is EISDIR; letting it through would
			// corrupt the directory's format through the legal API (found
			// by FuzzCrashConsistency: create/remove/mkdir reusing a name,
			// then writing to it).
			fs.rele(ib)
			return ErrIsDir
		}
		bi := int(off / BlockSize)
		boff := int(off % BlockSize)
		n := BlockSize - boff
		if n > len(data) {
			n = len(data)
		}
		end := off + uint64(n)
		newSize := ip.Size
		if end > newSize {
			newSize = end
		}
		// The block gets the fragments it needs after the write.
		b, err := fs.growBlock(p, ino, &ip, ib, ioff, bi, blockRunLen(newSize, bi), newSize, false, nil)
		if err != nil {
			fs.rele(ib)
			return err
		}
		b.Hold()
		fs.cache.PrepareModify(p, b)
		copy(b.Data[boff:], data[:n])
		fs.cache.Bdwrite(b)
		b.Unhold()
		fs.rele(ib)
		off = end
		data = data[n:]
	}
	return nil
}

// ReadAt reads len(buf) bytes from offset off; short reads return the count.
func (fs *FS) ReadAt(p *sim.Proc, ino Ino, off uint64, buf []byte) (int, error) {
	sp := fs.begin(p, obs.OpRead)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, ino)
	defer fs.unlockInode(ino)

	ip, ib, ioff, err := fs.getInode(p, ino)
	if err != nil {
		return 0, err
	}
	defer fs.rele(ib)
	if !ip.Allocated() {
		return 0, ErrNotExist
	}
	total := 0
	for total < len(buf) && off < ip.Size {
		bi := int(off / BlockSize)
		boff := int(off % BlockSize)
		b, err := fs.readBlock(p, ino, &ip, ib, ioff, bi)
		if err != nil {
			return total, err
		}
		n := len(b.Data) - boff
		if rem := int(ip.Size - off); n > rem {
			n = rem
		}
		if n > len(buf)-total {
			n = len(buf) - total
		}
		copy(buf[total:], b.Data[boff:boff+n])
		total += n
		off += uint64(n)
	}
	fs.charge(p, fs.cfg.Costs.PerKBCopy*sim.Duration((total+FragSize-1)/FragSize))
	return total, nil
}

// ReadDir lists the live entries of a directory (excluding "." and "..").
func (fs *FS) ReadDir(p *sim.Proc, dir Ino) ([]Dirent, error) {
	sp := fs.begin(p, obs.OpReadDir)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall)
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)

	dip, dib, dioff, err := fs.getInode(p, dir)
	if err != nil {
		return nil, err
	}
	defer fs.rele(dib)
	if !dip.Allocated() {
		return nil, ErrNotExist
	}
	if !dip.IsDir() {
		return nil, ErrNotDir
	}
	var out []Dirent
	for bi := 0; bi < blocksOf(dip.Size); bi++ {
		_, data, err := fs.dirBlock(p, dir, &dip, dib, dioff, bi)
		if err != nil {
			return nil, err
		}
		ents := listEntries(data)
		fs.charge(p, fs.cfg.Costs.DirScanEntry*sim.Duration(len(ents)))
		for _, d := range ents {
			if d.Name == "." || d.Name == ".." {
				continue
			}
			out = append(out, d)
		}
	}
	return out, nil
}
