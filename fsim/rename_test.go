package fsim_test

import (
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
)

// TestRenameWhileDirectoryBlockMoves: a rename within one directory adds
// the new name before it removes the old one, and the add can grow the
// directory's fragment-sized last block, which moves it when the next
// fragment is taken. The removal must land in the block's new home: left
// in the vacated buffer, the old name survives on disk and dangles once
// the file is unlinked. Short names renamed to long ones make the renames
// do the growing; each file's data takes the fragments behind the
// directory so that growing means moving.
func TestRenameWhileDirectoryBlockMoves(t *testing.T) {
	long := strings.Repeat("x", 50)
	for _, scheme := range fsim.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			// Failures leave the simulated process by return: t.Fatal there
			// would strand the engine.
			var fail error
			sys.Run(func(p *fsim.Proc) {
				fs := sys.FS
				dir, err := fs.Mkdir(p, fsim.RootIno, "spool")
				for i := 0; i < 48 && err == nil; i++ {
					tmp, final := fmt.Sprintf("t%d", i), fmt.Sprintf("%s%d", long, i)
					var ino fsim.Ino
					if ino, err = fs.Create(p, dir, tmp); err != nil {
						break
					}
					if err = fs.WriteAt(p, ino, 0, make([]byte, 1024)); err != nil {
						break
					}
					if err = fs.Rename(p, dir, tmp, dir, final); err != nil {
						break
					}
					if _, lerr := fs.Lookup(p, dir, tmp); lerr == nil {
						err = fmt.Errorf("rename %d left the old name behind", i)
					} else if i%2 == 0 {
						err = fs.Unlink(p, dir, final)
					}
				}
				fail = err
				fs.Sync(p)
			})
			if fail != nil {
				t.Fatal(fail)
			}
			sys.Shutdown()
			img := sys.Disk.CloneImage()
			if scheme == fsim.Journaling {
				fsck.ReplayJournal(img)
			}
			if viol := fsck.Check(img).Violations(); len(viol) != 0 {
				t.Fatalf("%d violations after a clean shutdown; first: %v", len(viol), viol[0])
			}
		})
	}
}
