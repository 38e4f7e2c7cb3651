package cache_test

import (
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/cache"
)

// flagCell runs one small Flag cell on a machine of its own: four users
// each create files of one to eight fragments in a directory of their own
// and remove every other one, then everything is flushed, the machine is
// shut down and its cache drops what it holds. It returns the bytes the
// cache dropped.
func flagCell(t *testing.T) int {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.SchedulerFlag, DiskBytes: 16 << 20, CacheBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const users, files = 4, 60
	sys.RunUsers(users, func(p *fsim.Proc, u int) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, fmt.Sprintf("u%d", u))
		if err != nil {
			t.Error(err)
			return
		}
		for k := 0; k < files; k++ {
			ino, err := sys.FS.Create(p, dir, fmt.Sprintf("f%d", k))
			if err == nil {
				err = sys.FS.WriteAt(p, ino, 0, make([]byte, (1+k%8)*cache.FragSize))
			}
			if err == nil && k%2 == 1 {
				err = sys.FS.Unlink(p, dir, fmt.Sprintf("f%d", k-1))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	sys.Shutdown()
	held := sys.Cache.Bytes()
	sys.Cache.DropClean()
	return held - sys.Cache.Bytes()
}

// poolLengths returns the storage pool's length in every size class.
func poolLengths() (n [9]int) {
	for k := 1; k < len(n); k++ {
		n[k] = cache.Pooled(k)
	}
	return n
}

// TestStoragePoolSteadyAcrossCells: the same Flag cell, run five times,
// takes what it needs from the process-wide pool and gives all of it back.
// Once the pool has warmed to the cell's high-water (after the second run)
// every class's length stays as it is — no growth — and after every run
// the pool holds at least what the cell's cache dropped at its end — no
// leak.
func TestStoragePoolSteadyAcrossCells(t *testing.T) {
	cache.DrainStorage()
	var warm [9]int
	for run := 1; run <= 5; run++ {
		dropped := flagCell(t)
		got := poolLengths()
		pooled := 0
		for k, n := range got {
			pooled += k * cache.FragSize * n
		}
		if dropped == 0 || pooled < dropped {
			t.Errorf("run %d: the pool holds %d bytes after the cell's cache dropped %d", run, pooled, dropped)
		}
		switch {
		case run == 2:
			warm = got
		case run > 2 && got != warm:
			t.Errorf("run %d: pool lengths by class %v, %v after run 2", run, got[1:], warm[1:])
		}
	}
}
