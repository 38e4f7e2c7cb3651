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

// lookupLocked scans dir for name; it returns the entry's inode, the held
// block buffer and entry offset. The caller holds dir's lock and must
// release the buffer.
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
	nblocks := blocksOf(dip.Size)
	for bi := 0; bi < nblocks; bi++ {
		b, err := fs.readBlock(p, dir, &dip, dib, dioff, bi)
		if err != nil {
			return 0, nil, 0, err
		}
		limit := int(dip.Size) - bi*BlockSize
		if limit > len(b.Data) {
			limit = len(b.Data)
		}
		d, found, scanned := findEntry(b.Data[:limit], name)
		fs.charge(p, fs.cfg.Costs.DirScanEntry*sim.Duration(scanned))
		if found {
			return d.Ino, b.Hold(), d.Off, nil
		}
	}
	return 0, nil, 0, ErrNotExist
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
	nblocks := blocksOf(dip.Size)
	for bi := 0; bi < nblocks; bi++ {
		b, err := fs.readBlock(p, dir, &dip, dib, dioff, bi)
		if err != nil {
			return nil, 0, err
		}
		limit := int(dip.Size) - bi*BlockSize
		if limit > len(b.Data) {
			limit = len(b.Data)
		}
		b.Hold()
		fs.cache.PrepareModify(p, b)
		if off, ok := addEntryInData(b.Data[:limit], name, ino, ftype); ok {
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
	off, ok := addEntryInData(b.Data[:chunkStart+DirChunk], name, ino, ftype)
	if !ok || off < int(chunkStart) {
		// The fresh chunk always fits a new entry at its start.
		panic("ffs: new directory chunk could not hold entry")
	}
	return b.Hold(), off, nil
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

	if _, db, _, err := fs.lookupLocked(p, dir, name); err == nil {
		fs.rele(db)
		return 0, ErrExist
	} else if err != ErrNotExist {
		return 0, err
	}

	ino, err := fs.allocInode(p)
	if err != nil {
		return 0, err
	}
	ib, ioff, err := fs.inodeBuf(p, ino)
	if err != nil {
		return 0, err
	}
	defer fs.rele(ib)
	fs.charge(p, fs.cfg.Costs.InodeOp)
	fs.cache.PrepareModify(p, ib)
	ip := Inode{Mode: ModeFile, Nlink: 1, Gen: DecodeInode(ib.Data[ioff:]).Gen + 1}
	ip.encode(ib.Data[ioff : ioff+InodeSize])

	fs.assignCG(ino, fs.preferredCG(dir, nil))
	rec := &LinkRec{FS: fs, Ino: ino, InoBuf: ib, NewInode: true, DirIno: dir}
	fs.ord.AddInode(p, rec)

	db, off, err := fs.dirAddEntry(p, dir, name, ino, FtypeFile)
	if err != nil {
		return 0, err
	}
	defer fs.rele(db)
	rec.DirBuf, rec.EntryOff = db, off
	fs.ord.AddEntry(p, rec)
	return ino, nil
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

	if _, db, _, err := fs.lookupLocked(p, dir, name); err == nil {
		fs.rele(db)
		return 0, ErrExist
	} else if err != ErrNotExist {
		return 0, err
	}

	ino, err := fs.allocInode(p)
	if err != nil {
		return 0, err
	}
	// 1. Initialize the child inode (link count 2: "." and parent entry).
	cib, cioff, err := fs.inodeBuf(p, ino)
	if err != nil {
		return 0, err
	}
	defer fs.rele(cib)
	fs.charge(p, fs.cfg.Costs.InodeOp)
	fs.cache.PrepareModify(p, cib)
	cip := Inode{Mode: ModeDir, Nlink: 2, Gen: DecodeInode(cib.Data[cioff:]).Gen + 1}
	cip.encode(cib.Data[cioff : cioff+InodeSize])
	fs.assignCG(ino, fs.nextDirCG())
	childRec := &LinkRec{FS: fs, Ino: ino, InoBuf: cib, NewInode: true, DirIno: dir}
	fs.ord.AddInode(p, childRec)

	// 2. Bump the parent's link count ("..") before the ".." entry can hit
	// the disk.
	dip, dib, dioff, err := fs.getInode(p, dir)
	if err != nil {
		return 0, err
	}
	defer fs.rele(dib)
	fs.cache.PrepareModify(p, dib)
	dip.Nlink++
	fs.putInode(p, &dip, dib, dioff)
	parentRec := &LinkRec{FS: fs, Ino: dir, InoBuf: dib, DirIno: ino}
	fs.ord.AddInode(p, parentRec)

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
		return 0, err
	}
	defer fs.rele(cb.Hold())
	childRec2 := &LinkRec{FS: fs, Ino: ino, InoBuf: cib, NewInode: true,
		DirIno: ino, DirBuf: cb, EntryOff: dotOff}
	fs.ord.AddEntry(p, childRec2)
	parentRec.DirBuf, parentRec.EntryOff = cb, dotdotOff
	fs.ord.AddEntry(p, parentRec)

	// 4. The parent's entry for the child.
	db, off, err := fs.dirAddEntry(p, dir, name, ino, FtypeDir)
	if err != nil {
		return 0, err
	}
	defer fs.rele(db)
	childRec.DirBuf, childRec.EntryOff = db, off
	fs.ord.AddEntry(p, childRec)
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

	if _, db, _, err := fs.lookupLocked(p, dir, name); err == nil {
		fs.rele(db)
		return ErrExist
	} else if err != ErrNotExist {
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
	fs.cache.PrepareModify(p, ib)
	ip.Nlink++
	fs.putInode(p, &ip, ib, ioff)
	rec := &LinkRec{FS: fs, Ino: ino, InoBuf: ib, DirIno: dir}
	fs.ord.AddInode(p, rec)

	db, off, err := fs.dirAddEntry(p, dir, name, ino, FtypeFile)
	if err != nil {
		return err
	}
	defer fs.rele(db)
	rec.DirBuf, rec.EntryOff = db, off
	fs.ord.AddEntry(p, rec)
	return nil
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
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, db)
	removeEntryInData(db.Data, off)
	rec := &RemRec{FS: fs, Ino: ino, DirIno: dir, DirBuf: db, EntryOff: off, DirLocked: true}
	fs.ord.RemoveEntry(p, rec)
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
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, db)
	removeEntryInData(db.Data, off)
	rec := &RemRec{FS: fs, Ino: ino, DirIno: dir, DirBuf: db, EntryOff: off, DirLocked: true}
	fs.ord.RemoveEntry(p, rec)
	return nil
}

func (fs *FS) dirEmpty(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int) (bool, error) {
	nblocks := blocksOf(ip.Size)
	for bi := 0; bi < nblocks; bi++ {
		b, err := fs.readBlock(p, ino, ip, ib, ioff, bi)
		if err != nil {
			return false, err
		}
		limit := int(ip.Size) - bi*BlockSize
		if limit > len(b.Data) {
			limit = len(b.Data)
		}
		live, nonDot := countLive(b.Data[:limit])
		fs.charge(p, fs.cfg.Costs.DirScanEntry*sim.Duration(live))
		if nonDot {
			return false, nil
		}
	}
	return true, nil
}

// Rename moves sname in sdir to dname in ddir. An existing destination
// entry is replaced in place (the sector-atomic overwrite satisfies rule 1
// for the pair); the classic add-then-remove ordering covers the rest.
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
	ip, ib, ioff, err := fs.getInode(p, ino)
	if err != nil {
		return err
	}
	defer fs.rele(ib)
	if ip.IsDir() {
		return ErrIsDir // directory rename not supported by this substrate
	}

	// Add the new link first (rule 1): bump the link count, order the
	// inode write, then add/replace the destination entry.
	fs.cache.PrepareModify(p, ib)
	ip.Nlink++
	fs.putInode(p, &ip, ib, ioff)
	addRec := &LinkRec{FS: fs, Ino: ino, InoBuf: ib, DirIno: ddir}
	fs.ord.AddInode(p, addRec)

	oldIno, ddb, doff, derr := fs.lookupLocked(p, ddir, dname)
	switch derr {
	case nil:
		oldIp, oib, _, gerr := fs.getInode(p, oldIno)
		if gerr != nil {
			fs.rele(ddb)
			return gerr
		}
		fs.rele(oib)
		if oldIp.IsDir() {
			fs.rele(ddb)
			return ErrIsDir
		}
		// Atomic in-place replacement of the entry's inode number.
		fs.charge(p, fs.cfg.Costs.DirModify)
		fs.cache.PrepareModify(p, ddb)
		setPtr(ddb.Data, doff, int32(ino))
		addRec.DirBuf, addRec.EntryOff = ddb, doff
		fs.ord.AddEntry(p, addRec)
		remOld := &RemRec{FS: fs, Ino: oldIno, DirIno: ddir, DirBuf: ddb, EntryOff: doff, DirLocked: true}
		fs.ord.RemoveEntry(p, remOld)
		fs.rele(ddb)
	case ErrNotExist:
		db, off, aerr := fs.dirAddEntry(p, ddir, dname, ino, FtypeFile)
		if aerr != nil {
			return aerr
		}
		addRec.DirBuf, addRec.EntryOff = db, off
		fs.ord.AddEntry(p, addRec)
		if sdir == ddir && db != sdb {
			// The add may have grown the directory's last block by moving
			// it (growBlock): db is then the block that holds the old name
			// and sdb the vacated copy, in which a removal would be lost.
			if d, moved, _ := findEntry(db.Data, sname); moved {
				fs.rele(sdb)
				sdb, soff = db.Hold(), d.Off
			}
		}
		fs.rele(db)
	default:
		return derr
	}

	// Remove the old name (its offset is still valid: removals only clear
	// or coalesce within the held buffer).
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, sdb)
	removeEntryInData(sdb.Data, soff)
	remRec := &RemRec{FS: fs, Ino: ino, DirIno: sdir, DirBuf: sdb, EntryOff: soff, DirLocked: true}
	fs.ord.RemoveEntry(p, remRec)
	return nil
}

// FinishRemove performs the deferred half of a link removal: decrement the
// link count and, at zero, free the file. Ordering schemes call it exactly
// once per RemoveEntry, at the moment their discipline allows.
func (fs *FS) FinishRemove(p *sim.Proc, rec *RemRec) {
	if !rec.InoLocked {
		fs.lockInode(p, rec.Ino)
	}
	unlockIno := func() {
		if !rec.InoLocked {
			fs.unlockInode(rec.Ino)
		}
	}
	ip, ib, ioff, err := fs.getInode(p, rec.Ino)
	if err != nil {
		// Hook context: nobody to return the error to. The inode stays
		// allocated with a stale link count — exactly the fsck-repairable
		// "link count too high" degradation, left behind.
		unlockIno()
		return
	}
	defer fs.rele(ib)
	fs.charge(p, fs.cfg.Costs.InodeOp)
	if ip.IsDir() && !rec.LinkOnly {
		// rmdir: the child loses "." and the parent entry; the parent
		// loses "..". The parent may already be locked by the caller.
		if !rec.DirLocked {
			fs.lockInode(p, rec.DirIno)
		}
		// An unreadable parent keeps its stale link count, like the child
		// above.
		if pip, pib, pioff, perr := fs.getInode(p, rec.DirIno); perr == nil {
			fs.cache.PrepareModify(p, pib)
			pip.Nlink--
			fs.putInode(p, &pip, pib, pioff)
			fs.ord.MetaUpdate(p, pib)
			fs.rele(pib)
		}
		if !rec.DirLocked {
			fs.unlockInode(rec.DirIno)
		}
		ip.Nlink = 0
		fs.freeFile(p, rec.Ino, &ip, ib, ioff)
		unlockIno()
		return
	}
	ip.Nlink--
	if ip.Nlink > 0 {
		fs.cache.PrepareModify(p, ib)
		fs.putInode(p, &ip, ib, ioff)
		fs.ord.MetaUpdate(p, ib)
		unlockIno()
		return
	}
	fs.freeFile(p, rec.Ino, &ip, ib, ioff)
	unlockIno()
}

// freeFile clears the inode and hands its resources to the ordering scheme
// (rule 2: nothing is re-usable until the cleared inode is on disk). The
// caller holds the inode lock and the (held) inode-table buffer.
func (fs *FS) freeFile(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int) {
	// On an unreadable indirect block: free what was collected, leak the
	// rest (fsck's free-map reconciliation reclaims leaked fragments).
	runs, _ := fs.collectRuns(p, ip)
	fs.charge(p, fs.cfg.Costs.InodeOp)
	fs.cache.PrepareModify(p, ib)
	cleared := Inode{Gen: ip.Gen}
	cleared.encode(ib.Data[ioff : ioff+InodeSize])
	delete(fs.prefCG, ino)
	rec := &FreeRec{FS: fs, OwnerIno: ino, OwnerBuf: ib, Frags: runs, FreeIno: ino}
	fs.ord.FreeBlocks(p, rec)
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
		// Fragments needed by this block after the write.
		var wantNF int
		if bi == blocksOf(newSize)-1 {
			wantNF = lastBlockFrags(newSize)
		} else {
			wantNF = BlockFrags
		}
		b, err := fs.growBlock(p, ino, &ip, ib, ioff, bi, wantNF, newSize, false, nil)
		if err != nil {
			fs.rele(ib)
			return err
		}
		b.Hold()
		fs.cache.PrepareModify(p, b)
		copy(b.Data[boff:], data[:n])
		fs.ord.DataWrite(p, b)
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
	nblocks := blocksOf(dip.Size)
	for bi := 0; bi < nblocks; bi++ {
		b, err := fs.readBlock(p, dir, &dip, dib, dioff, bi)
		if err != nil {
			return nil, err
		}
		limit := int(dip.Size) - bi*BlockSize
		if limit > len(b.Data) {
			limit = len(b.Data)
		}
		ents := listEntries(b.Data[:limit])
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
