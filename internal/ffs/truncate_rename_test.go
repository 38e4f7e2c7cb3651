package ffs_test

import (
	"bytes"
	"fmt"
	"testing"

	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

func TestTruncateToZero(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		r.fs.WriteAt(p, ino, 0, fileData(1, 150<<10)) // with indirect
		if err := r.fs.Truncate(p, ino, 0); err != nil {
			t.Fatal(err)
		}
		ip, _ := r.fs.Stat(p, ino)
		if ip.Size != 0 || ip.Direct[0] != 0 || ip.Indir != 0 {
			t.Fatalf("inode not cleared: %+v", ip)
		}
		// Entry still exists; file reusable.
		if err := r.fs.WriteAt(p, ino, 0, fileData(2, 5000)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5000)
		if n, _ := r.fs.ReadAt(p, ino, 0, got); n != 5000 || !bytes.Equal(got, fileData(2, 5000)) {
			t.Fatal("rewrite after truncate failed")
		}
		r.fs.Sync(p)
	})
}

func TestTruncatePartialWithinDirect(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		data := fileData(1, 40000) // ~5 blocks
		r.fs.WriteAt(p, ino, 0, data)
		if err := r.fs.Truncate(p, ino, 12500); err != nil {
			t.Fatal(err)
		}
		ip, _ := r.fs.Stat(p, ino)
		if ip.Size != 12500 {
			t.Fatalf("size = %d", ip.Size)
		}
		if ip.Direct[2] != 0 || ip.Direct[4] != 0 {
			t.Fatal("pointers beyond new end not cleared")
		}
		got := make([]byte, 20000)
		n, err := r.fs.ReadAt(p, ino, 0, got)
		if err != nil || n != 12500 || !bytes.Equal(got[:n], data[:12500]) {
			t.Fatalf("surviving data wrong: n=%d err=%v", n, err)
		}
		// Freed space reusable after the surviving prefix.
		r.fs.Sync(p)
		g, _ := r.fs.Create(p, ffs.RootIno, "g")
		if err := r.fs.WriteAt(p, g, 0, fileData(3, 30000)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTruncateGrowIsNoop(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		r.fs.WriteAt(p, ino, 0, fileData(1, 1000))
		if err := r.fs.Truncate(p, ino, 5000); err != nil {
			t.Fatal(err)
		}
		ip, _ := r.fs.Stat(p, ino)
		if ip.Size != 1000 {
			t.Fatalf("grow-truncate changed size to %d", ip.Size)
		}
	})
}

func TestTruncateErrors(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		dir, _ := r.fs.Mkdir(p, ffs.RootIno, "d")
		if err := r.fs.Truncate(p, dir, 0); err != ffs.ErrIsDir {
			t.Errorf("truncate of dir: %v", err)
		}
		big, _ := r.fs.Create(p, ffs.RootIno, "big")
		r.fs.WriteAt(p, big, 0, fileData(1, 150<<10))
		if err := r.fs.Truncate(p, big, 50000); err == nil {
			t.Error("partial truncate across indirect should fail")
		}
	})
}

func TestRenameDirAcrossParents(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		a, _ := r.fs.Mkdir(p, ffs.RootIno, "a")
		b, _ := r.fs.Mkdir(p, ffs.RootIno, "b")
		sub, _ := r.fs.Mkdir(p, a, "sub")
		f, _ := r.fs.Create(p, sub, "payload")
		r.fs.WriteAt(p, f, 0, fileData(1, 2000))

		if err := r.fs.Rename(p, a, "sub", b, "moved"); err != nil {
			t.Fatal(err)
		}
		// Old name gone, new name resolves, ".." retargeted.
		if _, err := r.fs.Lookup(p, a, "sub"); err != ffs.ErrNotExist {
			t.Fatal("old name survives")
		}
		got, err := r.fs.Lookup(p, b, "moved")
		if err != nil || got != sub {
			t.Fatalf("new name: %d %v", got, err)
		}
		dotdot, err := r.fs.Lookup(p, sub, "..")
		if err != nil || dotdot != b {
			t.Fatalf("'..' = %d, want %d", dotdot, b)
		}
		// Link counts: a back to 2, b now 3, sub still 2.
		aip, _ := r.fs.Stat(p, a)
		bip, _ := r.fs.Stat(p, b)
		sip, _ := r.fs.Stat(p, sub)
		if aip.Nlink != 2 || bip.Nlink != 3 || sip.Nlink != 2 {
			t.Fatalf("nlinks a=%d b=%d sub=%d, want 2/3/2", aip.Nlink, bip.Nlink, sip.Nlink)
		}
		// Contents intact.
		got2 := make([]byte, 2000)
		n, _ := r.fs.ReadAt(p, f, 0, got2)
		if n != 2000 || !bytes.Equal(got2, fileData(1, 2000)) {
			t.Fatal("payload damaged by directory move")
		}
		r.fs.Sync(p)
	})
}

func TestRenameDirSameParent(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		d, _ := r.fs.Mkdir(p, ffs.RootIno, "old")
		if err := r.fs.Rename(p, ffs.RootIno, "old", ffs.RootIno, "new"); err != nil {
			t.Fatal(err)
		}
		got, err := r.fs.Lookup(p, ffs.RootIno, "new")
		if err != nil || got != d {
			t.Fatalf("new name: %d %v", got, err)
		}
		ip, _ := r.fs.Stat(p, d)
		rip, _ := r.fs.Stat(p, ffs.RootIno)
		if ip.Nlink != 2 || rip.Nlink != 3 {
			t.Fatalf("nlinks dir=%d root=%d", ip.Nlink, rip.Nlink)
		}
	})
}

func TestRenameDirCycleRejected(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		a, _ := r.fs.Mkdir(p, ffs.RootIno, "a")
		bIno, _ := r.fs.Mkdir(p, a, "b")
		c, _ := r.fs.Mkdir(p, bIno, "c")
		// Moving "a" under its own grandchild must fail.
		if err := r.fs.Rename(p, ffs.RootIno, "a", c, "boom"); err == nil {
			t.Fatal("cycle-creating rename accepted")
		}
		// Moving "a" onto itself must fail too.
		if err := r.fs.Rename(p, ffs.RootIno, "a", a, "boom"); err == nil {
			t.Fatal("rename into itself accepted")
		}
	})
}

func TestRenameDirUnderEveryScheme(t *testing.T) {
	schemes := []struct {
		name string
		ord  ffs.Ordering
	}{
		{"noorder", ordering.NewNoOrder()},
		{"conventional", ordering.NewConventional()},
	}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			r := newRig(t, sc.ord, ffs.Config{})
			r.run(t, func(p *sim.Proc) {
				a, _ := r.fs.Mkdir(p, ffs.RootIno, "a")
				b, _ := r.fs.Mkdir(p, ffs.RootIno, "b")
				for i := 0; i < 3; i++ {
					d, err := r.fs.Mkdir(p, a, fmt.Sprintf("d%d", i))
					if err != nil {
						t.Fatal(err)
					}
					_ = d
					if err := r.fs.Rename(p, a, fmt.Sprintf("d%d", i), b, fmt.Sprintf("m%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				r.fs.Sync(p)
				aip, _ := r.fs.Stat(p, a)
				bip, _ := r.fs.Stat(p, b)
				if aip.Nlink != 2 || bip.Nlink != 5 {
					t.Fatalf("nlinks a=%d b=%d, want 2/5", aip.Nlink, bip.Nlink)
				}
			})
			if n := r.c.HeldCount(); n != 0 {
				t.Fatalf("%d buffers held", n)
			}
		})
	}
}
