package ffs

import (
	"metaupdate/internal/sim"
)

// RenameDir moves directory sname from sdir into ddir as dname. Between two
// parents the moved directory's ".." is retargeted and link counts move with
// it (the old parent loses a reference, the new parent gains one). All
// changes ride the same ordering machinery as file renames: the ".." slot is
// overwritten in place (sector-atomic, so rule 1 holds for the pair), the
// overwrite is an AddEntry for the new parent plus a RemoveEntry for the
// old one, and the old parent's link count falls only after the retargeted
// ".." could be durable. Within one parent only the entry changes.
//
// The destination must not exist, and ddir must not be inside the moved
// directory (the classic rename cycle check).
func (fs *FS) RenameDir(p *sim.Proc, sdir Ino, sname string, ddir Ino, dname string) error {
	fs.charge(p, fs.cfg.Costs.Syscall)
	if err := validName(dname); err != nil {
		return err
	}
	fs.lockPair(p, sdir, ddir)
	defer fs.unlockPair(sdir, ddir)

	child, sdb, soff, err := fs.lookupLocked(p, sdir, sname)
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
	if sdir != ddir {
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
	}
	if err := fs.absent(p, ddir, dname); err != nil {
		return err
	}

	// 1. The child gains a transient extra reference so the normal
	// add-then-remove flow keeps its count safe throughout (exactly the
	// file-rename pattern). The child is not locked, so its inode is decoded
	// afresh once its block may be modified.
	fs.cache.PrepareModify(p, cib)
	cip = DecodeInode(cib.Data[cioff:])
	addRec := fs.addLink(p, child, &cip, cib, cioff, false)

	// 2. The new parent gains the ".." reference.
	var newParentRec *LinkRec
	if sdir != ddir {
		dip, dib, dioff, err := fs.getInode(p, ddir)
		if err != nil {
			return err
		}
		defer fs.rele(dib)
		newParentRec = fs.addLink(p, ddir, &dip, dib, dioff, true)
	}

	// 3. Entry in the new parent.
	if err := fs.addEntry(p, addRec, ddir, dname, FtypeDir); err != nil {
		if newParentRec != nil {
			fs.dropLink(p, newParentRec, child)
		}
		return err
	}

	// 4. Retarget "..": an in-place, sector-atomic overwrite in the
	// child's first block — an add (new parent) plus a remove (old
	// parent) at the same offset. Its inode is decoded afresh again.
	if sdir != ddir {
		cip = DecodeInode(cib.Data[cioff:])
		cb, err := fs.readBlock(p, child, &cip, cib, cioff, 0)
		if err != nil {
			return err
		}
		defer fs.rele(cb.Hold())
		d, found, _ := findEntry(cb.Data[:DirChunk], "..")
		if !found {
			return ErrNotDir
		}
		fs.removeLink(p, &RemRec{Ino: sdir, DirIno: child, DirBuf: cb, EntryOff: d.Off,
			InoLocked: true, LinkOnly: true}, newParentRec)
	}

	// 5. Remove the old entry; the deferred half drops the child's
	// transient extra reference.
	fs.removeLink(p, &RemRec{Ino: child, DirIno: sdir, DirBuf: sdb, EntryOff: soff,
		DirLocked: true, LinkOnly: true}, nil)
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
