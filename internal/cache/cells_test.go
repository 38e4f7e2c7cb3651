package cache_test

import (
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/cache"
)

// flagCell runs one small Flag cell on a machine of its own: four users
// each create files of one to eight fragments in a directory of their own
// and remove every other one, then everything is flushed and the machine
// is shut down, which closes its cache. It returns the bytes the cache
// held just before the shutdown and the machine.
func flagCell(t *testing.T) (int, *fsim.System) {
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
	held := sys.Cache.Bytes()
	sys.Shutdown()
	return held, sys
}

// poolLengths returns the storage pool's length in every size class.
func poolLengths() (n [9]int) {
	for k := 1; k < len(n); k++ {
		n[k] = cache.Pooled(k)
	}
	return n
}

// pooledBytes returns the bytes the storage pool holds.
func pooledBytes() int {
	b := 0
	for k, n := range poolLengths() {
		b += k * cache.FragSize * n
	}
	return b
}

// TestStoragePoolSteadyAcrossCells: the same Flag cell, run five times,
// takes what it needs from the process-wide pool and gives all of it back.
// Once the pool has warmed to the cell's high-water (after the second run)
// every class's length stays as it is — no growth — and after every run
// the pool holds at least what the cell's cache held before its shutdown —
// no leak.
func TestStoragePoolSteadyAcrossCells(t *testing.T) {
	cache.DrainStorage()
	var warm [9]int
	for run := 1; run <= 5; run++ {
		held, _ := flagCell(t)
		got := poolLengths()
		if pooled := pooledBytes(); held == 0 || pooled < held {
			t.Errorf("run %d: the pool holds %d bytes after a shutdown of a cache that held %d", run, pooled, held)
		}
		switch {
		case run == 2:
			warm = got
		case run > 2 && got != warm:
			t.Errorf("run %d: pool lengths by class %v, %v after run 2", run, got[1:], warm[1:])
		}
	}
}

// TestShutdownReturnsStorage: a machine's shutdown closes its cache, which
// hands every mapped buffer's storage to the pool — dirty ones too (the
// file written first is never synced) — so an identical second cell takes
// all its storage from the pool and carves no slab. A closed cache serves
// no further Getblk or Bread.
func TestShutdownReturnsStorage(t *testing.T) {
	cache.DrainStorage()
	sys, err := fsim.New(fsim.Options{Scheme: fsim.SchedulerFlag, DiskBytes: 16 << 20, CacheBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *fsim.Proc) {
		ino, err := sys.FS.Create(p, fsim.RootIno, "f")
		if err == nil {
			err = sys.FS.WriteAt(p, ino, 0, make([]byte, 3*cache.FragSize))
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	held, before := sys.Cache.Bytes(), pooledBytes()
	if sys.Cache.DirtyCount() == 0 {
		t.Fatal("setup: no dirty buffer before the shutdown")
	}
	sys.Shutdown()
	if got := sys.Cache.Bytes(); got != 0 {
		t.Errorf("the cache maps %d bytes after Shutdown, want 0", got)
	}
	if grew := pooledBytes() - before; held == 0 || grew != held {
		t.Errorf("Shutdown of a cache mapping %d bytes grew the pool by %d", held, grew)
	}

	flagCell(t)
	first := poolLengths()
	_, sys = flagCell(t)
	if second := poolLengths(); second != first {
		t.Errorf("pool lengths by class %v after a second identical cell, %v after the first: the second carved storage", second[1:], first[1:])
	}
	for name, use := range map[string]func(){
		"Getblk": func() { sys.Cache.Getblk(nil, 8, 1) },
		"Bread":  func() { sys.Cache.Bread(nil, 8, 1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "after Close") {
					t.Errorf("%s on a closed cache: recovered %q, want the used-after-Close panic", name, msg)
				}
			}()
			use()
		}()
	}
}
