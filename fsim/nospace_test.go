package fsim_test

import (
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
)

// TestFailedLinkAdditionLeaksNothing fills a 4 MB file system to the last
// fragment and then asks for link additions whose directory must grow. Each
// fails with ErrNoSpace after the addition has already taken something — a
// fresh inode (Create, Mkdir), a link count (Link, Rename of a file or a
// directory), the parent's ".." reference (Mkdir, Rename of a directory into
// another parent) — and must give it back: after
// a Sync the image has no fsck finding at all, under every scheme.
func TestFailedLinkAdditionLeaksNothing(t *testing.T) {
	long := func(i int) string { return fmt.Sprintf("%0120d", i) }
	for _, scheme := range fsim.Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 4 << 20, NInodes: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			fs := sys.FS
			sys.Run(func(p *fsim.Proc) {
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				noSpace := func(what string, err error) {
					t.Helper()
					if err != ffs.ErrNoSpace {
						t.Fatalf("%s on the full file system: %v, want ErrNoSpace", what, err)
					}
				}
				d, err := fs.Mkdir(p, fsim.RootIno, "d")
				must(err)
				_, err = fs.Mkdir(p, fsim.RootIno, "m")
				must(err)
				victim, err := fs.Create(p, fsim.RootIno, "victim")
				must(err)
				big, err := fs.Create(p, fsim.RootIno, "big")
				must(err)
				var small []fsim.Ino
				for i := 0; i < 24; i++ {
					ino, err := fs.Create(p, fsim.RootIno, fmt.Sprint("s", i))
					must(err)
					small = append(small, ino)
				}

				// Whole blocks into one file, then the fragments left in
				// partly used blocks one at a time.
				block := make([]byte, ffs.BlockSize)
				for off := uint64(0); ; off += ffs.BlockSize {
					if err := fs.WriteAt(p, big, off, block); err != nil {
						noSpace("WriteAt", err)
						break
					}
				}
				left := 0
				for _, ino := range small {
					if fs.WriteAt(p, ino, 0, block[:ffs.FragSize]) == nil {
						left++
					}
				}
				if left == len(small) {
					t.Fatal("free fragments remain after the fill")
				}

				// d's fragment holds two chunks; the entry that needs a third
				// needs a second fragment.
				i := 0
				for ; err == nil; i++ {
					_, err = fs.Create(p, d, long(i))
				}
				noSpace("Create", err)
				for n := 0; n < 3; n++ {
					noSpace("Link", fs.Link(p, victim, d, long(i)))
				}
				noSpace("Rename", fs.Rename(p, fsim.RootIno, "victim", d, long(i)))
				_, err = fs.Mkdir(p, d, long(i))
				noSpace("Mkdir", err)
				noSpace("Rename of a directory", fs.Rename(p, fsim.RootIno, "m", d, long(i)))
				fs.Sync(p)
			})
			if rep := fsck.Check(sys.Disk.Image()); len(rep.Findings) != 0 {
				var all []string
				for _, f := range rep.Findings {
					all = append(all, f.String())
				}
				t.Errorf("fsck after the failed additions:\n\t%s", strings.Join(all, "\n\t"))
			}
			if n := sys.Cache.HeldCount(); n != 0 {
				t.Errorf("%d buffers left held", n)
			}
			if n := sys.FS.Unfinished(); n != 0 {
				t.Errorf("%d removals/frees never finished", n)
			}
		})
	}
}
