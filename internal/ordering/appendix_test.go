package ordering_test

import (
	"fmt"
	"testing"

	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// Tests for the specific behaviors the paper's appendix describes.

// "Because indirect blocks generally represent a very small fraction of the
// cache contents, we force them to stay resident and dirty while they have
// pending dependencies."
func TestIndirectBlockPinnedWhileDependent(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "big")
		// Write past the direct blocks so an indirect block exists with
		// pending allocation dependencies.
		if err := r.fs.WriteAt(p, ino, 0, fileData(1, (ffs.NDirect+2)*ffs.BlockSize)); err != nil {
			t.Fatal(err)
		}
		ip, err := r.fs.Stat(p, ino)
		if err != nil || ip.Indir == 0 {
			t.Fatalf("no indirect block: %+v %v", ip, err)
		}
		b := r.c.Lookup(int64(ip.Indir))
		if b == nil {
			t.Fatal("indirect block not resident")
		}
		if !b.Pinned {
			t.Fatal("indirect block with pending dependencies not pinned")
		}
		r.fs.Sync(p)
		b = r.c.Lookup(int64(ip.Indir))
		if b != nil && b.Pinned {
			t.Fatal("indirect block still pinned after dependencies resolved")
		}
	})
}

// "If the directory entry has a pending link addition dependency, the add
// and addsafe structures are removed and the link removal proceeds
// unhindered (the add and remove have been serviced with no disk writes!)"
// — and the same annihilation must free the never-written inode with no
// clearing write.
func TestCancelFreesInodeWithNoWrites(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		base := r.c.WritesIssued
		ino, err := r.fs.Create(p, ffs.RootIno, "ephemeral")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.fs.Unlink(p, ffs.RootIno, "ephemeral"); err != nil {
			t.Fatal(err)
		}
		r.c.RunWork(p)
		if got := r.c.WritesIssued - base; got != 0 {
			t.Fatalf("cancelled pair issued %d writes", got)
		}
		_ = ino
		r.fs.Sync(p)
	})
	// Nothing of the pair survives on disk: only the root is allocated and
	// nothing leaked.
	rep := fsck.Check(r.dsk.Image())
	if len(rep.Findings) != 0 {
		t.Fatalf("cancelled pair left on-disk state: %v", rep.Findings)
	}
	if rep.AllocatedInodes != 1 {
		t.Fatalf("%d allocated inodes on disk, want 1 (root)", rep.AllocatedInodes)
	}
}

// "For the special case of extending a fragment by moving the data to a new
// block ... we do not consider the inode appropriately 'modified' until the
// allocdirect dependency clears" — the vacated fragments stay allocated
// until the retargeted pointer could be durable.
func TestMovedFragmentsNotReusedBeforeResolution(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		// A 1-fragment file whose neighbors get taken, forcing a move on
		// extension.
		a, _ := r.fs.Create(p, ffs.RootIno, "a")
		r.fs.WriteAt(p, a, 0, fileData(1, 1000))
		ipBefore, _ := r.fs.Stat(p, a)
		oldFrag := ipBefore.Direct[0]
		for i := 0; i < 7; i++ {
			f, _ := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("fill%d", i))
			r.fs.WriteAt(p, f, 0, fileData(i+10, 1000))
		}
		r.fs.WriteAt(p, a, 0, fileData(2, 3000)) // move
		ipAfter, _ := r.fs.Stat(p, a)
		if ipAfter.Direct[0] == oldFrag {
			t.Skip("extension happened in place; no move to test")
		}
		// Before any flushing, a new 1KB file must NOT land on the vacated
		// fragment (its free is deferred).
		nf, _ := r.fs.Create(p, ffs.RootIno, "newbie")
		r.fs.WriteAt(p, nf, 0, fileData(3, 1000))
		ipNew, _ := r.fs.Stat(p, nf)
		if ipNew.Direct[0] == oldFrag {
			t.Fatal("vacated fragment reused before the retargeted pointer resolved")
		}
		// After a full sync the fragment is free again.
		r.fs.Sync(p)
		nf2, _ := r.fs.Create(p, ffs.RootIno, "reuser")
		r.fs.WriteAt(p, nf2, 0, fileData(4, 1000))
		ip2, _ := r.fs.Stat(p, nf2)
		if ip2.Direct[0] != oldFrag {
			t.Logf("note: allocator picked %d, vacated was %d (policy-dependent)", ip2.Direct[0], oldFrag)
		}
	})
}

// The dependency structures must all drain: after a sync with no further
// activity, the scheme holds no per-buffer state at all.
func TestDependencyStructuresDrainCompletely(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		dir, _ := r.fs.Mkdir(p, ffs.RootIno, "d")
		for i := 0; i < 25; i++ {
			ino, _ := r.fs.Create(p, dir, fmt.Sprintf("f%d", i))
			r.fs.WriteAt(p, ino, 0, fileData(i, 5000))
		}
		for i := 0; i < 10; i++ {
			r.fs.Unlink(p, dir, fmt.Sprintf("f%d", i))
		}
		r.fs.Sync(p)
	})
	if n := r.su.DepCount(); n != 0 {
		t.Fatalf("%d buffers still carry dependency state after sync: %v", n, r.su.DebugDeps())
	}
}

// A directory block written before its new entries' inodes are durable must
// carry zeroed inode numbers on disk (rule 3 rollback), and the re-written
// block after resolution must carry them for real.
func TestDirectoryRollbackIsCopyBased(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "target")
		sb := r.fs.Superblock()
		rootFrag := int64(sb.DataStart)
		b := r.c.Lookup(rootFrag)
		if b == nil || !b.Dirty {
			t.Fatal("root block not dirty")
		}
		// Write the directory block now: the entry must be rolled back on
		// disk, while the LIVE buffer keeps the real inode number (the
		// copy-on-write property).
		r.c.Bwrite(p, b)
		got, err := r.fs.Lookup(p, ffs.RootIno, "target")
		if err != nil || got != ino {
			t.Fatalf("live lookup broken during rollback: %d %v", got, err)
		}
		if r.su.Stat.Rollbacks == 0 {
			t.Fatal("no rollback recorded")
		}
	})
}
