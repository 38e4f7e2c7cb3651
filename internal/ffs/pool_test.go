package ffs_test

import (
	"fmt"
	"runtime"
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// TestAllocFreeGrowBlockMove: a file's one-fragment block, its neighbours
// taken, grows to a whole block, so growBlock moves it. The new 8 KB buffer
// takes its storage from the storage pool, where the blocks freed before
// left theirs: in steady state a move allocates its bookkeeping and none of
// the buffer's bytes. So does the whole cycle, the files' creation and
// removal included: a leak of the moved block's storage or of the eight
// fragments' costs at least a block per cycle. The move alone would miss
// such a leak: a slab carved for an empty class serves the next eight gets,
// so the allocation a leak forces can land outside the move. The pool is
// process-wide, so the test drains it first: storage other tests left
// there would otherwise hide a leak.
func TestAllocFreeGrowBlockMove(t *testing.T) {
	r := newRig(t, ordering.NewNoOrder(), ffs.Config{})
	cache.DrainStorage()
	const cycles, warm = 12, 2
	small, rest := fileData(1, 1000), fileData(2, 7000)
	var moves int
	var bytes, cycleBytes uint64
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < cycles; i++ {
			var c0, c1 runtime.MemStats
			runtime.ReadMemStats(&c0)
			names := []string{"a"}
			for j := 0; j < ffs.BlockFrags-1; j++ {
				names = append(names, fmt.Sprintf("fill%d", j))
			}
			inos := make([]ffs.Ino, len(names))
			for j, name := range names {
				ino, err := r.fs.Create(p, ffs.RootIno, name)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.fs.WriteAt(p, ino, 0, small); err != nil {
					t.Fatal(err)
				}
				inos[j] = ino
			}
			before, _ := r.fs.Stat(p, inos[0])
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := r.fs.WriteAt(p, inos[0], uint64(len(small)), rest); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			after, _ := r.fs.Stat(p, inos[0])
			if after.Direct[0] == before.Direct[0] {
				t.Fatalf("cycle %d: the block grew in place at fragment %d, not moved", i, after.Direct[0])
			}
			if i >= warm {
				moves++
				bytes += m1.TotalAlloc - m0.TotalAlloc
			}
			for _, name := range names {
				if err := r.fs.Unlink(p, ffs.RootIno, name); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&c1)
			if i >= warm {
				cycleBytes += c1.TotalAlloc - c0.TotalAlloc
			}
		}
	})
	if per := bytes / uint64(moves); per >= ffs.BlockSize/2 {
		t.Errorf("growBlock moving a block to 8 fragments: %d bytes per move, want no buffer bytes (< %d)", per, ffs.BlockSize/2)
	}
	if per := cycleBytes / uint64(moves); per >= ffs.BlockSize {
		t.Errorf("creating, growing and removing %d files: %d bytes per cycle, want no buffer bytes (< %d)", ffs.BlockFrags, per, ffs.BlockSize)
	}
}
