package fsim_test

import (
	"fmt"
	"runtime"
	"testing"

	"metaupdate/fsim"
)

// removalUsers, removalWarm and removalTimed shape TestAllocFreeRemoval:
// each user unlinks removalWarm files of its own directory to warm the
// scheme's bookkeeping, then removalTimed more while mallocs are counted.
const (
	removalUsers = 4
	removalWarm  = 300
	removalTimed = 300
)

// removalBudget is the most mallocs one unlink may leave behind in steady
// state, per scheme: next to none where the removal records and the
// scheme's bookkeeping are values in reused storage; Soft Updates still
// makes an inodeDep per free and Async a snapshot per group-commit sweep.
var removalBudget = map[fsim.Scheme]float64{
	fsim.Conventional:    0.5,
	fsim.SchedulerFlag:   0.5,
	fsim.SchedulerChains: 0.5,
	fsim.NoOrder:         0.5,
	fsim.Journaling:      0.5,
	fsim.SoftUpdates:     2,
	fsim.AsyncDurability: 2,
}

// The removal path (Fig 5b: a concurrent unlink of files made beforehand)
// leaves next to nothing to collect: RemRec and FreeRec travel by value,
// the -CB snapshot pool's waiters park on one reused completion, and each
// scheme keeps what it defers in storage it reuses.
func TestAllocFreeRemoval(t *testing.T) {
	for _, s := range fsim.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			sys, err := fsim.New(fsim.Options{Scheme: s, DiskBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			per := removalWarm + removalTimed
			dirs := make([]fsim.Ino, removalUsers)
			names := make([][]string, removalUsers)
			data := make([]byte, 1024)
			sys.Run(func(p *fsim.Proc) {
				for u := range dirs {
					if dirs[u], err = sys.FS.Mkdir(p, fsim.RootIno, fmt.Sprintf("u%d", u)); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < per; k++ {
						names[u] = append(names[u], fmt.Sprintf("f%d", k))
						ino, err := sys.FS.Create(p, dirs[u], names[u][k])
						if err == nil {
							err = sys.FS.WriteAt(p, ino, 0, data)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				sys.FS.Sync(p)
			})
			unlink := func(from, to int) {
				sys.RunUsers(removalUsers, func(p *fsim.Proc, u int) {
					for _, name := range names[u][from:to] {
						if err := sys.FS.Unlink(p, dirs[u], name); err != nil {
							t.Error(err)
							return
						}
					}
				})
				// The deferred halves (Soft Updates' workitems, the frees
				// behind the cleared inodes) run inside the window.
				sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
			}
			unlink(0, removalWarm)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			unlink(removalWarm, per)
			runtime.ReadMemStats(&m1)
			got := float64(m1.Mallocs-m0.Mallocs) / (removalUsers * removalTimed)
			t.Logf("%.2f mallocs per unlink", got)
			if got >= removalBudget[s] {
				t.Errorf("%.2f mallocs per unlink, want < %.1f", got, removalBudget[s])
			}
		})
	}
}
