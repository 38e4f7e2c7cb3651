package ordering_test

import (
	"fmt"
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

type rig struct {
	eng *sim.Engine
	dsk *disk.Disk
	drv *dev.Driver
	c   *cache.Cache
	fs  *ffs.FS
}

func newRig(t *testing.T, ord ffs.Ordering, dcfg dev.Config, ccfg cache.Config, fscfg ffs.Config) *rig {
	t.Helper()
	return formatRig(t, ord, ffs.FormatParams{TotalBytes: 64 << 20, NInodes: 2048}, dcfg, ccfg, fscfg)
}

// formatRig mounts ord on a disk of fp.TotalBytes formatted with fp.
func formatRig(t *testing.T, ord ffs.Ordering, fp ffs.FormatParams, dcfg dev.Config, ccfg cache.Config, fscfg ffs.Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), fp.TotalBytes)
	if _, err := ffs.Format(dsk, fp); err != nil {
		t.Fatal(err)
	}
	drv := dev.New(eng, dsk, dcfg)
	cpu := &sim.CPU{}
	c := cache.New(eng, drv, cpu, ccfg)
	r := &rig{eng: eng, dsk: dsk, drv: drv, c: c}
	var err error
	eng.Spawn("mount", func(p *sim.Proc) {
		r.fs, err = ffs.Mount(eng, cpu, c, ord, fscfg, p)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.eng.Spawn("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("simulated process deadlocked")
	}
}

func TestConventionalCreateIsSynchronous(t *testing.T) {
	// One synchronous write (the inode block) per create: the process
	// must block for a disk write inside the system call.
	r := newRig(t, ordering.NewConventional(), dev.Config{}, cache.Config{}, ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		r.c.Driver().Trace.Reset()
		start := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := p.Now() - start
		n := r.drv.Trace.Requests()
		if n < 10 {
			t.Fatalf("10 conventional creates issued only %d writes", n)
		}
		// Ten sync writes at several ms each: elapsed must be disk-bound.
		if elapsed < 20*sim.Millisecond {
			t.Fatalf("creates took %v; synchronous writes should dominate", elapsed)
		}
	})
}

func TestConventionalRemoveIsTwoSyncWrites(t *testing.T) {
	r := newRig(t, ordering.NewConventional(), dev.Config{}, cache.Config{}, ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			ino, _ := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("f%d", i))
			r.fs.WriteAt(p, ino, 0, make([]byte, 1024))
		}
		r.fs.Sync(p)
		r.drv.Trace.Reset()
		for i := 0; i < 5; i++ {
			if err := r.fs.Unlink(p, ffs.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		// Directory block + cleared inode block per remove = 2 sync writes.
		if got := r.drv.Trace.Requests(); got < 10 {
			t.Fatalf("5 removes issued %d writes, want >= 10", got)
		}
	})
}

func TestFlagSchemeDoesNotBlockOnCreate(t *testing.T) {
	// Flagged writes are asynchronous: the create path must not wait for
	// the disk (with -CB there is not even a write lock).
	r := newRig(t, ordering.NewFlag(),
		dev.Config{Mode: dev.ModeFlag, Sem: dev.SemPart, NR: true},
		cache.Config{CB: true}, ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := p.Now() - start
		// CPU-bound: an order of magnitude below the conventional case.
		if elapsed > 40*sim.Millisecond {
			t.Fatalf("flag creates took %v; async writes should not block", elapsed)
		}
		if r.drv.Trace.Requests() < 1 && !r.drv.Busy() {
			t.Fatal("no async writes were issued")
		}
	})
}

// flagWatch counts the flagged writes a driver is submitted.
type flagWatch struct{ writes, flagged int }

func (w *flagWatch) RequestSubmitted(r *dev.Request, _ []uint64) {
	if r.Op == disk.Write {
		w.writes++
		if r.Flag {
			w.flagged++
		}
	}
}

func (w *flagWatch) RequestsCompleted([]uint64, sim.Time) {}

// TestFlagWritesCarryTheFlag: a create under the flag scheme submits at
// least one write with the ordering flag set, and the same create on the
// same driver under the conventional scheme submits writes but none
// flagged — the flag is the scheme's doing, not the driver's.
func TestFlagWritesCarryTheFlag(t *testing.T) {
	for _, c := range []struct {
		name    string
		ord     ffs.Ordering
		flagged bool
	}{
		{"flag", ordering.NewFlag(), true},
		{"conventional", ordering.NewConventional(), false},
	} {
		r := newRig(t, c.ord,
			dev.Config{Mode: dev.ModeFlag, Sem: dev.SemPart, NR: true},
			cache.Config{CB: true}, ffs.Config{})
		var w flagWatch
		r.drv.SetObserver(&w)
		r.run(t, func(p *sim.Proc) {
			if _, err := r.fs.Create(p, ffs.RootIno, "f"); err != nil {
				t.Fatal(err)
			}
			r.drv.WaitIdle(p)
		})
		if w.writes == 0 {
			t.Errorf("%s: the create submitted no writes", c.name)
		}
		if got := w.flagged > 0; got != c.flagged {
			t.Errorf("%s: %d of %d writes flagged, want flagged writes: %v", c.name, w.flagged, w.writes, c.flagged)
		}
	}
}

func TestChainsOrdersInodeBeforeDirEntryOnDisk(t *testing.T) {
	// Let the chains scheme run a create, then crash-stop before the
	// delayed directory write is flushed: the directory entry must never
	// be on disk before the inode.
	r := newRig(t, ordering.NewChains(), dev.Config{Mode: dev.ModeChains},
		cache.Config{CB: true}, ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		ino, err := r.fs.Create(p, ffs.RootIno, "ordered")
		if err != nil {
			t.Fatal(err)
		}
		r.fs.Sync(p)
		// After sync both are durable; decode the on-disk inode.
		sb := r.fs.Superblock()
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(r.dsk.Image()[int64(frag)*ffs.FragSize+int64(off):])
		if !ip.Allocated() {
			t.Fatal("inode not on disk after sync")
		}
	})
}

func TestChainsBarrierFreesVariant(t *testing.T) {
	ch := ordering.NewChains()
	ch.BarrierFrees = true
	r := newRig(t, ch, dev.Config{Mode: dev.ModeChains}, cache.Config{CB: true}, ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		ino, _ := r.fs.Create(p, ffs.RootIno, "f")
		r.fs.WriteAt(p, ino, 0, make([]byte, 4096))
		r.fs.Sync(p)
		if err := r.fs.Unlink(p, ffs.RootIno, "f"); err != nil {
			t.Fatal(err)
		}
		r.fs.Sync(p)
		if _, err := r.fs.Stat(p, ino); err != ffs.ErrNotExist {
			t.Fatalf("inode survives under barrier frees: %v", err)
		}
	})
}

func TestNoOrderNeverBlocksAndCoalesces(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), dev.Config{}, cache.Config{}, ffs.Config{})
	r.run(t, func(p *sim.Proc) {
		base := r.c.WritesIssued
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("f%d", i)
			ino, _ := r.fs.Create(p, ffs.RootIno, name)
			r.fs.WriteAt(p, ino, 0, make([]byte, 1024))
			r.fs.Unlink(p, ffs.RootIno, name)
		}
		if got := r.c.WritesIssued - base; got != 0 {
			t.Fatalf("No Order issued %d writes during pure churn", got)
		}
		r.fs.Sync(p)
	})
	// After churn + sync, almost nothing to write (a handful of metadata
	// blocks).
	if got := r.c.WritesIssued; got > 12 {
		t.Fatalf("No Order wrote %d blocks after fully-cancelling churn", got)
	}
}
