package ordering_test

import (
	"bytes"
	"fmt"
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// softRig is a rig mounted under Soft Updates, with allocation
// initialization on and the driver ignoring order.
type softRig struct {
	*rig
	su *ordering.SoftUpdates
}

func newSoftRig(t *testing.T) *softRig {
	t.Helper()
	su := ordering.NewSoftUpdates()
	fp := ffs.FormatParams{TotalBytes: 96 << 20, NInodes: 4096}
	return &softRig{formatRig(t, su, fp, dev.Config{Mode: dev.ModeIgnore}, cache.Config{MaxBytes: 8 << 20}, ffs.Config{AllocInit: true}), su}
}

func fileData(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + i*7)
	}
	return b
}

func TestBasicOperationsUnderSoftUpdates(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		dir, err := r.fs.Mkdir(p, ffs.RootIno, "d")
		if err != nil {
			t.Fatal(err)
		}
		ino, err := r.fs.Create(p, dir, "f")
		if err != nil {
			t.Fatal(err)
		}
		data := fileData(3, 20<<10)
		if err := r.fs.WriteAt(p, ino, 0, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if n, err := r.fs.ReadAt(p, ino, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("read-back failed: %d %v", n, err)
		}
		r.fs.Sync(p)
		// After a full sync every dependency must have drained.
		if r.c.DirtyCount() != 0 {
			t.Errorf("%d dirty buffers after sync", r.c.DirtyCount())
		}
	})
}

func TestCreateUsesNoSynchronousWrites(t *testing.T) {
	// The defining property: metadata updates are delayed writes; a create
	// issues zero disk writes in the system call path.
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		r.c.Driver().Trace.Reset()
		before := r.c.WritesIssued
		for i := 0; i < 50; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.c.WritesIssued - before; got != 0 {
			t.Fatalf("50 creates issued %d writes; soft updates should issue none", got)
		}
	})
}

func TestCreateRemoveCancelsWithNoWrites(t *testing.T) {
	// Create followed by immediate remove must be serviced with no disk
	// writes at all (the paper's figure 5c effect).
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		base := r.c.WritesIssued
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("tmp%d", i)
			ino, err := r.fs.Create(p, ffs.RootIno, name)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.fs.WriteAt(p, ino, 0, fileData(i, 1024)); err != nil {
				t.Fatal(err)
			}
			if err := r.fs.Unlink(p, ffs.RootIno, name); err != nil {
				t.Fatal(err)
			}
		}
		r.c.RunWork(p)
		if got := r.c.WritesIssued - base; got != 0 {
			t.Fatalf("create/remove churn issued %d writes", got)
		}
		if r.su.Stat.CancelledAdds < 100 {
			t.Errorf("only %d cancelled adds", r.su.Stat.CancelledAdds)
		}
	})
}

func TestRollbackKeepsDiskConsistent(t *testing.T) {
	// Force the directory block to be written while the new inode is not
	// yet on disk: the entry must be zeroed in the on-disk image (undone),
	// and re-established afterwards.
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, err := r.fs.Create(p, ffs.RootIno, "pending")
		if err != nil {
			t.Fatal(err)
		}
		_ = ino
		// Write ONLY the root directory block, not the inode table.
		rootIp, _ := r.fs.Stat(p, ffs.RootIno)
		_ = rootIp
		sb := r.fs.Superblock()
		rootFrag := int64(sb.DataStart) // root dir's first fragment
		b := r.c.Lookup(rootFrag)
		if b == nil || !b.Dirty {
			t.Fatal("root dir block not dirty after create")
		}
		r.c.Bwrite(p, b)

		if r.su.Stat.Rollbacks == 0 {
			t.Fatal("no rollback happened for premature directory write")
		}
		// On-disk entry must have a zero inode number: find "pending" raw.
		img := r.dsk.Image()
		raw := img[rootFrag*ffs.FragSize : (rootFrag+1)*ffs.FragSize]
		idx := bytes.Index(raw, []byte("pending"))
		if idx < 0 {
			t.Fatal("entry name not on disk at all") // name bytes should be there
		}
		inoField := raw[idx-8 : idx-4]
		if !bytes.Equal(inoField, []byte{0, 0, 0, 0}) {
			t.Fatalf("on-disk entry has non-zero ino %v with inode not yet written", inoField)
		}
		// In-memory the entry must be intact (redo).
		got, err := r.fs.Lookup(p, ffs.RootIno, "pending")
		if err != nil || got != ino {
			t.Fatalf("in-memory entry lost: %d %v", got, err)
		}
		// Full sync: everything resolves, entry becomes durable.
		r.fs.Sync(p)
		raw = img[rootFrag*ffs.FragSize : (rootFrag+1)*ffs.FragSize]
		idx = bytes.Index(raw, []byte("pending"))
		inoField = raw[idx-8 : idx-4]
		if bytes.Equal(inoField, []byte{0, 0, 0, 0}) {
			t.Fatal("entry still zero on disk after sync")
		}
	})
}

func TestDeferredRemoveFreesAfterDirWrite(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		r.fs.WriteAt(p, ino, 0, fileData(1, 30<<10))
		r.fs.Sync(p) // file fully durable; deps drained

		if err := r.fs.Unlink(p, ffs.RootIno, "f"); err != nil {
			t.Fatal(err)
		}
		// The inode must still be intact in memory (removal deferred).
		ip, err := r.fs.Stat(p, ino)
		if err != nil || ip.Nlink != 1 {
			t.Fatalf("inode modified before dir write: %+v, %v", ip, err)
		}
		// Sync: dir write completes -> workitem decrements -> free chain.
		r.fs.Sync(p)
		if _, err := r.fs.Stat(p, ino); err != ffs.ErrNotExist {
			t.Fatalf("inode not freed after sync: %v", err)
		}
		// Space must be reusable now.
		ino2, err := r.fs.Create(p, ffs.RootIno, "g")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.fs.WriteAt(p, ino2, 0, fileData(2, 30<<10)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSyncerDrivesRemovalWithoutExplicitSync(t *testing.T) {
	r := newSoftRig(t)
	r.c.StartSyncer()
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		r.fs.WriteAt(p, ino, 0, fileData(1, 4096))
		r.fs.Unlink(p, ffs.RootIno, "f")
		// Give the syncer time to flush and run workitems (two-pass marking
		// with fraction 1/30 needs up to ~62s; removal chains need a few
		// more rounds).
		p.Sleep(200 * sim.Second)
		if _, err := r.fs.Stat(p, ino); err != ffs.ErrNotExist {
			t.Fatalf("background removal incomplete: %v", err)
		}
		r.c.StopSyncer() // let the engine drain
	})
}

func TestFragmentExtensionUndo(t *testing.T) {
	// Extend a file's tail fragment, then force the inode table block out
	// before the new data block: the write image must carry the old
	// size/pointer.
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		r.fs.WriteAt(p, ino, 0, fileData(1, 1000))
		r.fs.Sync(p)

		// Extend to 3 KB: fragment extension (in place or move).
		r.fs.WriteAt(p, ino, 1000, fileData(2, 2000))
		sb := r.fs.Superblock()
		frag, off := sb.InodeFrag(ino)
		ib := r.c.Lookup(int64(frag))
		if ib == nil {
			t.Fatal("inode block not resident")
		}
		rollbacks := r.su.Stat.Rollbacks
		r.c.Bwrite(p, ib)
		if r.su.Stat.Rollbacks == rollbacks {
			t.Fatal("extension write-out did not roll back")
		}
		// On-disk size must still be the old 1000.
		img := r.dsk.Image()
		raw := img[int64(frag)*ffs.FragSize+int64(off):]
		odIno := ffs.DecodeInode(raw)
		if odIno.Size != 1000 {
			t.Fatalf("on-disk size = %d during pending extension, want 1000", odIno.Size)
		}
		r.fs.Sync(p)
		odIno = ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if odIno.Size != 3000 {
			t.Fatalf("on-disk size = %d after sync, want 3000", odIno.Size)
		}
		got := make([]byte, 3000)
		n, _ := r.fs.ReadAt(p, ino, 0, got)
		want := append(fileData(1, 1000), fileData(2, 2000)...)
		if n != 3000 || !bytes.Equal(got, want) {
			t.Fatal("data mismatch after extension")
		}
	})
}

func TestRemoveThrottlesNothing(t *testing.T) {
	// Removing a tree: the system call path issues no writes at all.
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		dir, _ := r.fs.Mkdir(p, ffs.RootIno, "d")
		for i := 0; i < 30; i++ {
			ino, _ := r.fs.Create(p, dir, fmt.Sprintf("f%d", i))
			r.fs.WriteAt(p, ino, 0, fileData(i, 2048))
		}
		r.fs.Sync(p)
		base := r.c.WritesIssued
		for i := 0; i < 30; i++ {
			if err := r.fs.Unlink(p, dir, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.c.WritesIssued - base; got != 0 {
			t.Fatalf("unlink path issued %d writes", got)
		}
		r.fs.Sync(p)
		ents, _ := r.fs.ReadDir(p, dir)
		if len(ents) != 0 {
			t.Fatalf("%d entries survive", len(ents))
		}
	})
}

func TestMassChurnConverges(t *testing.T) {
	// Heavy create/write/remove churn with the syncer running must leave a
	// consistent, fully-drained system.
	r := newSoftRig(t)
	r.c.StartSyncer()
	r.run(t, func(p *sim.Proc) {
		dir, _ := r.fs.Mkdir(p, ffs.RootIno, "churn")
		for round := 0; round < 5; round++ {
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("f%d", i)
				ino, err := r.fs.Create(p, dir, name)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.fs.WriteAt(p, ino, 0, fileData(round*100+i, 3000+i*100)); err != nil {
					t.Fatal(err)
				}
			}
			p.Sleep(3 * sim.Second)
			for i := 0; i < 40; i++ {
				if err := r.fs.Unlink(p, dir, fmt.Sprintf("f%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.fs.Sync(p)
		ents, _ := r.fs.ReadDir(p, dir)
		if len(ents) != 0 {
			t.Fatalf("%d entries survive churn", len(ents))
		}
		r.c.StopSyncer() // let the engine drain
		r.fs.Sync(p)
	})
	if r.c.DirtyCount() != 0 {
		t.Errorf("%d dirty buffers at end", r.c.DirtyCount())
	}
}

func TestHardLinkUnderSoftUpdates(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "a")
		r.fs.WriteAt(p, ino, 0, []byte("x"))
		if err := r.fs.Link(p, ino, ffs.RootIno, "b"); err != nil {
			t.Fatal(err)
		}
		r.fs.Sync(p)
		r.fs.Unlink(p, ffs.RootIno, "a")
		r.fs.Sync(p)
		ip, err := r.fs.Stat(p, ino)
		if err != nil || ip.Nlink != 1 {
			t.Fatalf("nlink = %d, %v", ip.Nlink, err)
		}
		r.fs.Unlink(p, ffs.RootIno, "b")
		r.fs.Sync(p)
		if _, err := r.fs.Stat(p, ino); err != ffs.ErrNotExist {
			t.Fatalf("inode survives: %v", err)
		}
	})
}

func TestRenameUnderSoftUpdates(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "old")
		r.fs.WriteAt(p, ino, 0, fileData(1, 500))
		dst, _ := r.fs.Create(p, ffs.RootIno, "dst")
		r.fs.Sync(p)
		if err := r.fs.Rename(p, ffs.RootIno, "old", ffs.RootIno, "dst"); err != nil {
			t.Fatal(err)
		}
		r.fs.Sync(p)
		got, err := r.fs.Lookup(p, ffs.RootIno, "dst")
		if err != nil || got != ino {
			t.Fatalf("dst -> %d, %v", got, err)
		}
		if _, err := r.fs.Stat(p, dst); err != ffs.ErrNotExist {
			t.Fatalf("replaced target survives: %v", err)
		}
		if _, err := r.fs.Lookup(p, ffs.RootIno, "old"); err != ffs.ErrNotExist {
			t.Fatal("old name survives")
		}
	})
}

func TestMkdirRmdirUnderSoftUpdates(t *testing.T) {
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			d, err := r.fs.Mkdir(p, ffs.RootIno, fmt.Sprintf("d%d", i))
			if err != nil {
				t.Fatal(err)
			}
			f, _ := r.fs.Create(p, d, "x")
			r.fs.WriteAt(p, f, 0, fileData(i, 100))
		}
		r.fs.Sync(p)
		for i := 0; i < 10; i++ {
			d, _ := r.fs.Lookup(p, ffs.RootIno, fmt.Sprintf("d%d", i))
			r.fs.Unlink(p, d, "x")
			if err := r.fs.Rmdir(p, ffs.RootIno, fmt.Sprintf("d%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		r.fs.Sync(p)
		rip, _ := r.fs.Stat(p, ffs.RootIno)
		if rip.Nlink != 2 {
			t.Fatalf("root nlink = %d after all rmdirs", rip.Nlink)
		}
		ents, _ := r.fs.ReadDir(p, ffs.RootIno)
		if len(ents) != 0 {
			t.Fatalf("%d entries survive", len(ents))
		}
	})
}

func TestNoCyclesNoAging(t *testing.T) {
	// The core claim of section 4.2: any dirty block can be written at any
	// time; repeated partial flushes always make progress and converge.
	r := newSoftRig(t)
	r.run(t, func(p *sim.Proc) {
		dir, _ := r.fs.Mkdir(p, ffs.RootIno, "d")
		for i := 0; i < 25; i++ {
			ino, _ := r.fs.Create(p, dir, fmt.Sprintf("f%d", i))
			r.fs.WriteAt(p, ino, 0, fileData(i, 6000))
		}
		rounds := r.c.SyncAll(p, 64)
		if rounds >= 64 {
			t.Fatalf("SyncAll did not converge (aging/cycle): %d rounds", rounds)
		}
	})
}
