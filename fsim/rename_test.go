package fsim_test

import (
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
)

// TestRenameWhileDirectoryBlockMoves: a rename within one directory adds
// the new name before it removes the old one, and the add can grow the
// directory's fragment-sized last block, which moves it when the next
// fragment is taken. The removal must land in the block's new home: left
// in the vacated buffer, the old name survives on disk and dangles once
// the file or directory is removed. Short names renamed to long ones make
// the renames do the growing; each file's data, or each directory's first
// block, takes the fragments behind the directory so that growing means
// moving.
func TestRenameWhileDirectoryBlockMoves(t *testing.T) {
	long := strings.Repeat("x", 50)
	kinds := []struct {
		name string
		// make creates tmp in dir, taking a fragment; remove removes final.
		make   func(fs *ffs.FS, p *fsim.Proc, dir fsim.Ino, tmp string) error
		remove func(fs *ffs.FS, p *fsim.Proc, dir fsim.Ino, final string) error
	}{
		{"file", func(fs *ffs.FS, p *fsim.Proc, dir fsim.Ino, tmp string) error {
			ino, err := fs.Create(p, dir, tmp)
			if err != nil {
				return err
			}
			return fs.WriteAt(p, ino, 0, make([]byte, 1024))
		}, (*ffs.FS).Unlink},
		{"directory", func(fs *ffs.FS, p *fsim.Proc, dir fsim.Ino, tmp string) error {
			_, err := fs.Mkdir(p, dir, tmp)
			return err
		}, (*ffs.FS).Rmdir},
	}
	for _, scheme := range fsim.Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, k := range kinds {
				t.Run(k.name, func(t *testing.T) {
					sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					// Failures leave the simulated process by return: t.Fatal
					// there would strand the engine.
					var fail error
					sys.Run(func(p *fsim.Proc) {
						fs := sys.FS
						dir, err := fs.Mkdir(p, fsim.RootIno, "spool")
						for i := 0; i < 48 && err == nil; i++ {
							tmp, final := fmt.Sprintf("t%d", i), fmt.Sprintf("%s%d", long, i)
							if err = k.make(fs, p, dir, tmp); err != nil {
								break
							}
							if err = fs.Rename(p, dir, tmp, dir, final); err != nil {
								break
							}
							if _, lerr := fs.Lookup(p, dir, tmp); lerr == nil {
								err = fmt.Errorf("rename %d left the old name behind", i)
							} else if i%2 == 0 {
								err = k.remove(fs, p, dir, final)
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
		})
	}
}

// TestRenameOntoItself: renaming a name onto itself is a no-op (POSIX).
// Taken through add-then-remove, the add would replace the entry with
// itself and the removal of the old name would then drop both links, free
// the file and leave no name at all.
func TestRenameOntoItself(t *testing.T) {
	data := []byte("hello")
	for _, scheme := range fsim.Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			var fail error
			sys.Run(func(p *fsim.Proc) {
				fs := sys.FS
				fail = func() error {
					ino, err := fs.Create(p, fsim.RootIno, "a")
					if err != nil {
						return err
					}
					if err := fs.WriteAt(p, ino, 0, data); err != nil {
						return err
					}
					if err := fs.Rename(p, fsim.RootIno, "a", fsim.RootIno, "a"); err != nil {
						return fmt.Errorf("rename onto itself: %v", err)
					}
					if err := fs.Rename(p, fsim.RootIno, "b", fsim.RootIno, "b"); err != ffs.ErrNotExist {
						return fmt.Errorf("rename of a missing name onto itself: %v, want ErrNotExist", err)
					}
					if got, err := fs.Lookup(p, fsim.RootIno, "a"); err != nil || got != ino {
						return fmt.Errorf("lookup after the rename: %d, %v; want %d", got, err, ino)
					}
					ip, err := fs.Stat(p, ino)
					if err != nil || ip.Nlink != 1 {
						return fmt.Errorf("stat after the rename: nlink %d, %v; want 1", ip.Nlink, err)
					}
					buf := make([]byte, 16)
					if n, err := fs.ReadAt(p, ino, 0, buf); err != nil || string(buf[:n]) != string(data) {
						return fmt.Errorf("contents after the rename: %q, %v", buf[:n], err)
					}
					fs.Sync(p)
					return nil
				}()
			})
			if fail != nil {
				t.Fatal(fail)
			}
			sys.Shutdown()
			img := sys.Disk.CloneImage()
			if scheme == fsim.Journaling {
				fsck.ReplayJournal(img)
			}
			if rep := fsck.Check(img); len(rep.Findings) != 0 {
				t.Fatalf("%d fsck findings after a clean shutdown; first: %v", len(rep.Findings), rep.Findings[0])
			}
		})
	}
}
