package ffs_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/ffs"
)

// TestDirIndexesStayInStep drives the three ways a directory block's bytes
// can part from the buffer its index was built from — a move by growBlock,
// an eviction and read-back, a freed directory whose inode number returns —
// under every scheme, and after each step rebuilds every live index from
// its buffer and compares.
func TestDirIndexesStayInStep(t *testing.T) {
	shapes := []struct {
		name string
		opt  fsim.Options
		run  func(sys *fsim.System, p *fsim.Proc, check func(string) error) error
	}{
		{"rename-moves-block", fsim.Options{DiskBytes: 64 << 20}, renameMovesBlock},
		{"evicted-and-read-back", fsim.Options{DiskBytes: 64 << 20, CacheBytes: 128 << 10}, evictedAndReadBack},
		{"rmdir-then-mkdir-reuses-inode", fsim.Options{DiskBytes: 64 << 20, NInodes: 64}, inodeReuse},
	}
	for _, scheme := range fsim.Schemes {
		for _, sh := range shapes {
			t.Run(scheme.String()+"/"+sh.name, func(t *testing.T) {
				opt := sh.opt
				opt.Scheme = scheme
				sys, err := fsim.New(opt)
				if err != nil {
					t.Fatal(err)
				}
				// Failures leave the simulated process by return: t.Fatal
				// there would strand the engine.
				var fail error
				sys.Run(func(p *fsim.Proc) {
					check := func(after string) error {
						n, err := sys.FS.CheckDirIndexes()
						if err == nil && n == 0 {
							err = errors.New("no directory index to check")
						}
						if err != nil {
							return fmt.Errorf("after %s: %v", after, err)
						}
						return nil
					}
					fail = sh.run(sys, p, check)
					sys.FS.Sync(p)
				})
				if fail != nil {
					t.Fatal(fail)
				}
				sys.Shutdown()
			})
		}
	}
}

// renameMovesBlock is TestRenameWhileDirectoryBlockMoves' shape: each file
// takes the fragment after the directory's last block, so the long name a
// rename adds moves that block, with the old name in it.
func renameMovesBlock(sys *fsim.System, p *fsim.Proc, check func(string) error) error {
	fs := sys.FS
	dir, err := fs.Mkdir(p, fsim.RootIno, "spool")
	if err != nil {
		return err
	}
	addrs := map[int32]bool{}
	long := strings.Repeat("x", 50)
	for i := 0; i < 48; i++ {
		tmp, final := fmt.Sprintf("t%d", i), fmt.Sprintf("%s%d", long, i)
		ino, err := fs.Create(p, dir, tmp)
		if err != nil {
			return err
		}
		if err := fs.WriteAt(p, ino, 0, make([]byte, 1024)); err != nil {
			return err
		}
		if err := fs.Rename(p, dir, tmp, dir, final); err != nil {
			return err
		}
		if err := check(fmt.Sprint("rename ", i)); err != nil {
			return err
		}
		if _, err := fs.Lookup(p, dir, tmp); err == nil {
			return fmt.Errorf("rename %d left the old name behind", i)
		}
		if got, err := fs.Lookup(p, dir, final); got != ino || err != nil {
			return fmt.Errorf("rename %d: the new name finds %d, %v; want %d", i, got, err, ino)
		}
		if i%2 == 0 {
			if err := fs.Unlink(p, dir, final); err != nil {
				return err
			}
		}
		ip, err := fs.Stat(p, dir)
		if err != nil {
			return err
		}
		addrs[ip.Direct[0]] = true
	}
	if len(addrs) < 2 {
		return errors.New("the directory's block never moved")
	}
	return check("the last unlink")
}

// evictedAndReadBack fills directories past a tiny cache, then looks every
// name up again and changes the directories: each block read back gets
// another buffer, so its index is rebuilt from the bytes.
func evictedAndReadBack(sys *fsim.System, p *fsim.Proc, check func(string) error) error {
	fs := sys.FS
	const ndirs, nfiles = 3, 120
	want := map[string]ffs.Ino{} // "d/name" -> inode; 0 once removed
	dirs := make([]ffs.Ino, ndirs)
	for d := range dirs {
		var err error
		if dirs[d], err = fs.Mkdir(p, fsim.RootIno, fmt.Sprint("dir", d)); err != nil {
			return err
		}
		for i := 0; i < nfiles; i++ {
			name := fmt.Sprintf("file-with-a-longer-name-%d", i)
			ino, err := fs.Create(p, dirs[d], name)
			if err != nil {
				return err
			}
			if err := fs.WriteAt(p, ino, 0, make([]byte, 4096)); err != nil {
				return err
			}
			want[fmt.Sprint(d, "/", name)] = ino
		}
	}
	if err := check("filling the directories"); err != nil {
		return err
	}
	verify := func(after string) error {
		for key, ino := range want {
			d, name, _ := strings.Cut(key, "/")
			got, err := fs.Lookup(p, dirs[d[0]-'0'], name)
			if ino == 0 && !errors.Is(err, ffs.ErrNotExist) || ino != 0 && (got != ino || err != nil) {
				return fmt.Errorf("after %s: %s finds %d, %v; want %d", after, key, got, err, ino)
			}
		}
		return check(after)
	}
	misses := sys.Cache.Misses
	if err := verify("reading the directories back"); err != nil {
		return err
	}
	if sys.Cache.Misses == misses {
		return errors.New("no directory block was read back")
	}
	for i := 0; i < nfiles; i += 2 {
		name := fmt.Sprintf("file-with-a-longer-name-%d", i)
		if err := fs.Unlink(p, dirs[0], name); err != nil {
			return err
		}
		want["0/"+name] = 0
		ino, err := fs.Create(p, dirs[1], "new-"+name)
		if err != nil {
			return err
		}
		want["1/new-"+name] = ino
	}
	return verify("changing the read-back blocks")
}

// inodeReuse removes a directory and makes new ones until one gets the
// removed one's inode number: none of the old names may answer in it.
func inodeReuse(sys *fsim.System, p *fsim.Proc, check func(string) error) error {
	fs := sys.FS
	old, err := fs.Mkdir(p, fsim.RootIno, "old")
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprint("x", i)
		if _, err := fs.Create(p, old, name); err != nil {
			return err
		}
		if _, err := fs.Lookup(p, old, name); err != nil {
			return err
		}
	}
	if err := check("filling the directory"); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if err := fs.Unlink(p, old, fmt.Sprint("x", i)); err != nil {
			return err
		}
	}
	if err := fs.Rmdir(p, fsim.RootIno, "old"); err != nil {
		return err
	}
	fs.Sync(p)
	for i := 0; ; i++ {
		name := fmt.Sprint("new", i)
		dir, err := fs.Mkdir(p, fsim.RootIno, name)
		if err != nil {
			return fmt.Errorf("mkdir %d: %v", i, err)
		}
		if dir != old {
			if err := fs.Rmdir(p, fsim.RootIno, name); err != nil {
				return err
			}
			fs.Sync(p)
			continue
		}
		for j := 0; j < 10; j++ {
			if _, err := fs.Lookup(p, dir, fmt.Sprint("x", j)); !errors.Is(err, ffs.ErrNotExist) {
				return fmt.Errorf("the reused directory %d answers the old name x%d: %v", dir, j, err)
			}
			ino, err := fs.Create(p, dir, fmt.Sprint("y", j))
			if err != nil {
				return err
			}
			if got, err := fs.Lookup(p, dir, fmt.Sprint("y", j)); got != ino || err != nil {
				return fmt.Errorf("y%d in the reused directory finds %d, %v; want %d", j, got, err, ino)
			}
		}
		return check("reusing the inode")
	}
}
