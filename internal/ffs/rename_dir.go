package ffs

import (
	"metaupdate/internal/sim"
)

// RenameDir moves directory sname from sdir into ddir as dname. The moved
// directory's ".." is retargeted; link counts move with it (the old parent
// loses a reference, the new parent gains one). All changes ride the same
// ordering machinery as file renames: the ".." slot is overwritten in
// place (sector-atomic, so rule 1 holds for the pair), the overwrite is an
// AddEntry for the new parent plus a RemoveEntry for the old one, and the
// old parent's link count falls only after the retargeted ".." could be
// durable.
//
// The destination must not exist, and ddir must not be inside the moved
// directory (the classic rename cycle check).
func (fs *FS) RenameDir(p *sim.Proc, sdir Ino, sname string, ddir Ino, dname string) error {
	fs.charge(p, fs.cfg.Costs.Syscall)
	if err := validName(dname); err != nil {
		return err
	}
	if sdir == ddir {
		// Pure rename within one directory: no ".." or link count changes.
		return fs.renameDirSameParent(p, sdir, sname, dname)
	}
	fs.lockPair(p, sdir, ddir)
	defer fs.unlockPair(sdir, ddir)

	child, sdb, soff, err := fs.lookupLocked(p, sdir, sname)
	if err != nil {
		return err
	}
	defer fs.rele(sdb)
	cip, cib, _, err := fs.getInode(p, child)
	if err != nil {
		return err
	}
	defer fs.rele(cib)
	if !cip.IsDir() {
		return ErrNotDir
	}
	// Cycle check: ddir must not be (inside) the moved directory.
	if child == ddir {
		return ErrExist
	}
	inside, err := fs.isAncestor(p, child, ddir)
	if err != nil {
		return err
	}
	if inside {
		return ErrNotEmpty // EINVAL in POSIX; reuse the closest error
	}
	if _, db, _, derr := fs.lookupLocked(p, ddir, dname); derr == nil {
		fs.rele(db)
		return ErrExist
	} else if derr != ErrNotExist {
		return derr
	}

	// 1. The child gains a transient extra reference so the normal
	// add-then-remove flow keeps its count safe throughout (exactly the
	// file-rename pattern).
	fs.cache.PrepareModify(p, cib)
	cip2, _, cioff2, err := fs.getInode(p, child)
	if err != nil {
		return err
	}
	fs.rele(cib) // getInode re-held it; drop the duplicate
	cip2.Nlink++
	fs.putInode(p, &cip2, cib, cioff2)
	addRec := &LinkRec{FS: fs, Ino: child, InoBuf: cib, DirIno: ddir}
	fs.ord.AddInode(p, addRec)
	_ = cip

	// 2. The new parent gains the ".." reference.
	dip, dib, dioff, err := fs.getInode(p, ddir)
	if err != nil {
		return err
	}
	defer fs.rele(dib)
	fs.cache.PrepareModify(p, dib)
	dip.Nlink++
	fs.putInode(p, &dip, dib, dioff)
	newParentRec := &LinkRec{FS: fs, Ino: ddir, InoBuf: dib, DirIno: child}
	fs.ord.AddInode(p, newParentRec)

	// 3. Entry in the new parent.
	db, off, err := fs.dirAddEntry(p, ddir, dname, child, FtypeDir)
	if err != nil {
		return err
	}
	defer fs.rele(db)
	addRec.DirBuf, addRec.EntryOff = db, off
	fs.ord.AddEntry(p, addRec)

	// 4. Retarget "..": an in-place, sector-atomic overwrite in the
	// child's first block — an add (new parent) plus a remove (old
	// parent) at the same offset.
	cip3, _, _, err := fs.getInode(p, child)
	if err != nil {
		return err
	}
	fs.rele(cib)
	cb, err := fs.readBlock(p, child, &cip3, cib, cioff2, 0)
	if err != nil {
		return err
	}
	cb.Hold()
	defer fs.rele(cb)
	d, found, _ := findEntry(cb.Data[:DirChunk], "..")
	if !found {
		return ErrNotDir
	}
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, cb)
	setPtr(cb.Data, d.Off, int32(ddir))
	newParentRec.DirBuf, newParentRec.EntryOff = cb, d.Off
	fs.ord.AddEntry(p, newParentRec)
	remDotdot := &RemRec{FS: fs, Ino: sdir, DirIno: child, DirBuf: cb, EntryOff: d.Off,
		InoLocked: true, LinkOnly: true}
	fs.ord.RemoveEntry(p, remDotdot)

	// 5. Remove the old entry; the deferred half drops the child's
	// transient extra reference.
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, sdb)
	removeEntryInData(sdb.Data, soff)
	remOld := &RemRec{FS: fs, Ino: child, DirIno: sdir, DirBuf: sdb, EntryOff: soff,
		DirLocked: true, LinkOnly: true}
	fs.ord.RemoveEntry(p, remOld)
	return nil
}

// renameDirSameParent renames a directory within one parent: only the
// entry changes, handled exactly like a file rename minus link counts.
func (fs *FS) renameDirSameParent(p *sim.Proc, dir Ino, sname, dname string) error {
	fs.lockInode(p, dir)
	defer fs.unlockInode(dir)
	child, sdb, soff, err := fs.lookupLocked(p, dir, sname)
	if err != nil {
		return err
	}
	defer fs.rele(sdb)
	cip, cib, cioff, err := fs.getInode(p, child)
	if err != nil {
		return err
	}
	defer fs.rele(cib)
	if !cip.IsDir() {
		return ErrNotDir
	}
	if _, db, _, derr := fs.lookupLocked(p, dir, dname); derr == nil {
		fs.rele(db)
		return ErrExist
	} else if derr != ErrNotExist {
		return derr
	}
	// Transient extra reference, then add new entry, then remove old.
	fs.cache.PrepareModify(p, cib)
	cip.Nlink++
	fs.putInode(p, &cip, cib, cioff)
	addRec := &LinkRec{FS: fs, Ino: child, InoBuf: cib, DirIno: dir}
	fs.ord.AddInode(p, addRec)
	db, off, err := fs.dirAddEntry(p, dir, dname, child, FtypeDir)
	if err != nil {
		return err
	}
	defer fs.rele(db)
	addRec.DirBuf, addRec.EntryOff = db, off
	fs.ord.AddEntry(p, addRec)
	fs.charge(p, fs.cfg.Costs.DirModify)
	fs.cache.PrepareModify(p, sdb)
	removeEntryInData(sdb.Data, soff)
	rem := &RemRec{FS: fs, Ino: child, DirIno: dir, DirBuf: sdb, EntryOff: soff,
		DirLocked: true, LinkOnly: true}
	fs.ord.RemoveEntry(p, rem)
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
