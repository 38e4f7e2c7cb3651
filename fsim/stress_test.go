package fsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
)

// Concurrent users hammering a SHARED directory with mixed operations:
// exercises the inode locks, the allocator mutex, write locks, and every
// ordering scheme's bookkeeping under contention. The end state must be
// identical across runs (determinism) and fsck-clean after sync.
func TestSharedDirectoryStress(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, scheme := range allSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			finalState := func() (string, *fsim.System) {
				sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 96 << 20})
				if err != nil {
					t.Fatal(err)
				}
				var shared fsim.Ino
				sys.Run(func(p *fsim.Proc) {
					shared, err = sys.FS.Mkdir(p, fsim.RootIno, "shared")
					if err != nil {
						t.Fatal(err)
					}
				})
				sys.RunUsers(4, func(p *fsim.Proc, u int) {
					rng := rand.New(rand.NewSource(int64(u) + 42))
					for step := 0; step < 120; step++ {
						name := fmt.Sprintf("u%d-f%d", u, rng.Intn(10))
						other := fmt.Sprintf("u%d-f%d", u, rng.Intn(10))
						switch rng.Intn(5) {
						case 0, 1:
							if ino, err := sys.FS.Create(p, shared, name); err == nil {
								sys.FS.WriteAt(p, ino, 0, make([]byte, 500+rng.Intn(12000)))
							}
						case 2:
							sys.FS.Unlink(p, shared, name)
						case 3:
							sys.FS.Rename(p, shared, name, shared, other)
						case 4:
							if ino, err := sys.FS.Lookup(p, shared, name); err == nil {
								buf := make([]byte, 4096)
								sys.FS.ReadAt(p, ino, 0, buf)
								sys.FS.WriteAt(p, ino, 0, make([]byte, 100+rng.Intn(2000)))
							}
						}
					}
				})
				sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
				// Canonical state: sorted listing with sizes.
				var state string
				sys.Run(func(p *fsim.Proc) {
					ents, err := sys.FS.ReadDir(p, shared)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range ents {
						ip, err := sys.FS.Stat(p, e.Ino)
						if err != nil {
							t.Fatalf("stat %q: %v", e.Name, err)
						}
						state += fmt.Sprintf("%s:%d;", e.Name, ip.Size)
					}
				})
				return state, sys
			}

			s1, sys := finalState()
			if s1 == "" {
				t.Fatal("stress produced an empty directory (suspicious)")
			}
			// fsck-clean after full sync.
			rep := fsck.Check(sys.Disk.Image())
			if len(rep.Findings) != 0 {
				t.Fatalf("fsck after stress: %v", rep.Findings[0])
			}
			if sys.Cache.HeldCount() != 0 {
				t.Fatalf("%d buffers left held", sys.Cache.HeldCount())
			}
			if sys.Soft != nil && sys.Soft.DepCount() != 0 {
				t.Fatalf("%d soft-updates deps left", sys.Soft.DepCount())
			}
			// Every removal and free the scheme was handed got its deferred
			// half (order.go's "exactly once"; twice would have panicked).
			if n := sys.FS.Unfinished(); n != 0 {
				t.Fatalf("%d removals/frees handed to the scheme and never finished", n)
			}
			// Deterministic replay.
			s2, _ := finalState()
			if s1 != s2 {
				t.Fatal("stress end state differs between identical runs")
			}
		})
	}
}

// Separate-directory variant at higher intensity, ending with full removal:
// nothing may leak.
func TestSeparateDirsChurnAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, scheme := range []fsim.Scheme{fsim.SoftUpdates, fsim.SchedulerChains} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 96 << 20})
			if err != nil {
				t.Fatal(err)
			}
			sys.RunUsers(4, func(p *fsim.Proc, u int) {
				dir, err := sys.FS.Mkdir(p, fsim.RootIno, fmt.Sprintf("u%d", u))
				if err != nil {
					t.Error(err)
					return
				}
				for round := 0; round < 4; round++ {
					for i := 0; i < 20; i++ {
						ino, err := sys.FS.Create(p, dir, fmt.Sprintf("f%d", i))
						if err != nil {
							t.Error(err)
							return
						}
						sys.FS.WriteAt(p, ino, 0, make([]byte, 3000+i*311))
					}
					for i := 0; i < 20; i++ {
						sys.FS.Unlink(p, dir, fmt.Sprintf("f%d", i))
					}
				}
			})
			sys.Run(func(p *fsim.Proc) {
				for u := 0; u < 4; u++ {
					if err := sys.FS.Rmdir(p, fsim.RootIno, fmt.Sprintf("u%d", u)); err != nil {
						t.Fatalf("rmdir u%d: %v", u, err)
					}
				}
				sys.FS.Sync(p)
			})
			rep := fsck.Check(sys.Disk.Image())
			if len(rep.Findings) != 0 {
				t.Fatalf("fsck: %v", rep.Findings[0])
			}
			if rep.AllocatedInodes != 1 {
				t.Fatalf("%d inodes allocated on disk, want only the root", rep.AllocatedInodes)
			}
			_ = ffs.RootIno
		})
	}
}
