package fsim_test

import (
	"bytes"
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/cache"
	"metaupdate/internal/fault"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
)

// allSchemes is the seven schemes of the comparison plus the NVRAM
// extension.
var allSchemes = append(append([]fsim.Scheme(nil), fsim.Schemes...), fsim.NVRAM)

// onDiskInode decodes ino directly from the media image.
func onDiskInode(sys *fsim.System, ino fsim.Ino) ffs.Inode {
	od, _ := fileOnImage(fsck.Bytes(sys.Disk.Image()), sys.FS.Superblock(), ino)
	return od
}

// fileOnImage reads ino's inode from a media image and, following its
// direct pointers, the bytes the image holds for the file (short at the
// first hole).
func fileOnImage(img fsck.Image, sb ffs.Superblock, ino fsim.Ino) (ffs.Inode, []byte) {
	frag, off := sb.InodeFrag(ino)
	od := ffs.DecodeInode(img.Range(int64(frag)*ffs.FragSize+int64(off), ffs.InodeSize))
	var data []byte
	for bi := 0; bi < len(od.Direct) && uint64(len(data)) < od.Size && od.Direct[bi] != 0; bi++ {
		n := min(int64(od.Size)-int64(len(data)), ffs.BlockSize)
		data = append(data, img.Range(int64(od.Direct[bi])*ffs.FragSize, n)...)
	}
	return od, data
}

// fsyncedFileLost reports what an image cut after ino's fsync returned (and
// recovered) fails to hold of it: the size, the block map and the payload
// must all be there.
func fsyncedFileLost(img fsck.Image, sb ffs.Superblock, ino fsim.Ino, payload []byte) []string {
	od, data := fileOnImage(img, sb, ino)
	switch {
	case !od.Allocated() || od.Size != uint64(len(payload)):
		return []string{fmt.Sprintf("fsynced inode %d: mode=%#x size=%d, want size %d", ino, od.Mode, od.Size, len(payload))}
	case len(data) != len(payload):
		return []string{fmt.Sprintf("fsynced inode %d: block map ends after %d of %d bytes", ino, len(data), len(payload))}
	case !bytes.Equal(data, payload):
		return []string{fmt.Sprintf("fsynced inode %d: data differs from what was written", ino)}
	}
	return nil
}

// Fsync must make the file durable under every scheme: a crash at the very
// instant Fsync returns — nothing flushed afterwards; journal replay is the
// one recovery step a scheme may need — leaves the inode with its final
// size, its block map and the data. The empty file has no data write to
// wait for: only the inode's own durability point stands behind its fsync.
func TestFsyncDurableUnderEveryScheme(t *testing.T) {
	type config struct {
		name string
		opt  fsim.Options
	}
	var configs []config
	for _, scheme := range allSchemes {
		configs = append(configs, config{scheme.String(), fsim.Options{Scheme: scheme}})
	}
	// Async as the open-loop exhibits and bench's mail-open run it.
	configs = append(configs, config{"Async-CB", fsim.Options{Scheme: fsim.AsyncDurability, Explicit: true, CB: true}})
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opt := c.opt
			opt.DiskBytes = 64 << 20
			sys, err := fsim.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, payload := range [][]byte{bytes.Repeat([]byte("fsync!"), 3000) /* ~18 KB, 3 blocks */, nil} {
				switch {
				case payload == nil && (opt.Scheme == fsim.SchedulerFlag || opt.Scheme == fsim.SchedulerChains):
					// Known defect (ROADMAP, known-bad region 4): create leaves
					// the inode block's write in flight under these two, and
					// the generic fsync loop looks at dirty buffers only, so it
					// returns before that write lands.
					continue
				case opt.CB:
					// Known defect (ROADMAP 1(a)): a -CB snapshot write leaves
					// the buffer clean without setting the write Buf.InFlight
					// reads, so fsyncAwait drops a fragment whose write is
					// still in flight and Fsync returns before the file is on
					// the media — both files are missing from the cut.
					continue
				}
				var ino fsim.Ino
				var img []byte
				sys.Run(func(p *fsim.Proc) {
					ino, err = sys.FS.Create(p, fsim.RootIno, fmt.Sprintf("f%d", len(payload)))
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.FS.WriteAt(p, ino, 0, payload); err != nil {
						t.Fatal(err)
					}
					if err := sys.FS.Fsync(p, ino); err != nil {
						t.Fatal(err)
					}
					img = sys.Disk.CloneImage()
				})
				if opt.Scheme == fsim.Journaling {
					fsck.ReplayJournal(img)
				}
				if lost := fsyncedFileLost(fsck.Bytes(img), sys.FS.Superblock(), ino, payload); lost != nil {
					t.Fatal(lost[0])
				}
			}
		})
	}
}

// failWrites fails every write that touches sectors [lo, hi), for good.
type failWrites struct{ lo, hi int64 }

func (f failWrites) Judge(write bool, lbn int64, count int, _ func(int64) bool) fault.Outcome {
	if write && lbn < f.hi && lbn+int64(count) > f.lo {
		return fault.Outcome{Kind: fault.Transient}
	}
	return fault.Outcome{}
}

// A data write the cache gave up on must come back as fsync's error under
// every scheme — whether the cache abandoned it before the fsync (the
// buffer is then clean, yet not durable), abandoned it and then evicted the
// buffer, or the write fails during the fsync.
func TestFsyncReportsAbandonedWrite(t *testing.T) {
	payload := bytes.Repeat([]byte("lost"), 256)
	for _, scheme := range allSchemes {
		for _, shape := range []string{"abandoned-before", "abandoned-evicted", "failing-during"} {
			scheme, shape := scheme, shape
			t.Run(scheme.String()+"/"+shape, func(t *testing.T) {
				sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 64 << 20})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Shutdown()
				sys.Run(func(p *fsim.Proc) {
					ino, err := sys.FS.Create(p, fsim.RootIno, "f")
					if err == nil {
						err = sys.FS.WriteAt(p, ino, 0, payload)
					}
					if err != nil {
						t.Error(err)
						return
					}
					sys.FS.Sync(p)
					ip, err := sys.FS.Stat(p, ino)
					if err != nil {
						t.Error(err)
						return
					}
					frag := int64(ip.Direct[0])
					sys.Disk.SetFaults(failWrites{frag * cache.SectorsPerFrag, (frag + 1) * cache.SectorsPerFrag}, 0)
					defer sys.Disk.SetFaults(nil, 0)
					if err := sys.FS.WriteAt(p, ino, 0, payload); err != nil {
						t.Error(err)
						return
					}
					if shape != "failing-during" {
						for i := 0; i < 8 && sys.Cache.LostWrites == 0; i++ {
							sys.FS.Sync(p)
						}
						if sys.Cache.LostWrites != 1 {
							t.Errorf("LostWrites = %d after the syncs, want 1", sys.Cache.LostWrites)
							return
						}
					}
					if shape == "abandoned-evicted" {
						sys.Cache.DropClean()
						if sys.Cache.Lookup(frag) != nil {
							t.Error("setup: the abandoned buffer was not evicted")
							return
						}
					}
					if err := sys.FS.Fsync(p, ino); err == nil {
						t.Error("fsync reported durable although the file's data write was abandoned")
					}
				})
			})
		}
	}
}

// Under Soft Updates a link removal's deferred half (FinishRemove) runs as
// a workitem in whichever process drains the queue. Fsync drains it while
// it holds its file's inode lock, so when the removed link is the file's
// own, FinishRemove must not take that lock again: the fsync returns, and
// the link count it leaves is the one the media ends with.
func TestFsyncDrainsItsFileRemoval(t *testing.T) {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	var ino fsim.Ino
	sys.Run(func(p *fsim.Proc) {
		ino, err = sys.FS.Create(p, fsim.RootIno, "f")
		if err == nil {
			err = sys.FS.WriteAt(p, ino, 0, bytes.Repeat([]byte("x"), 3000))
		}
		if err == nil {
			err = sys.FS.Link(p, ino, fsim.RootIno, "g")
		}
		if err != nil {
			t.Fatal(err)
		}
		sys.FS.Sync(p)
		if err := sys.FS.Unlink(p, fsim.RootIno, "g"); err != nil {
			t.Fatal(err)
		}
		// Write the directory block that dropped "g": its completion
		// queues the FinishRemove, and nothing drains the queue before
		// the fsync does.
		root, err := sys.FS.Stat(p, fsim.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		queued := sys.Soft.Stat.Workitems
		db := sys.Cache.Lookup(int64(root.Direct[0])).Hold()
		err = sys.Cache.Bwrite(p, db)
		db.Unhold()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Soft.Stat.Workitems != queued+1 {
			t.Fatalf("setup: the directory write queued %d workitems, want the FinishRemove", sys.Soft.Stat.Workitems-queued)
		}
		if err := sys.FS.Fsync(p, ino); err != nil {
			t.Fatalf("Fsync: %v", err)
		}
		sys.FS.Sync(p)
	})
	if n := onDiskInode(sys, ino).Nlink; n != 1 {
		t.Errorf("nlink on the media = %d after the unlink of one of two names, want 1", n)
	}
	if n := sys.FS.Unfinished(); n != 0 {
		t.Errorf("%d removals/frees handed to the scheme and never finished", n)
	}
}

func TestFsyncMissingFile(t *testing.T) {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *fsim.Proc) {
		if err := sys.FS.Fsync(p, fsim.Ino(999)); err != ffs.ErrNotExist {
			t.Fatalf("Fsync of unallocated inode: %v", err)
		}
	})
}

// Section 6.1 semantics: when create() returns, whether anything is durable
// differs by scheme — Conventional has synchronously written the inode;
// soft updates has written nothing at all.
func TestCreateDurabilitySemantics(t *testing.T) {
	durableInode := func(scheme fsim.Scheme) bool {
		sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		var ino fsim.Ino
		sys.Run(func(p *fsim.Proc) {
			ino, err = sys.FS.Create(p, fsim.RootIno, "f")
			if err != nil {
				t.Fatal(err)
			}
		})
		od := onDiskInode(sys, ino)
		return od.Allocated()
	}
	if !durableInode(fsim.Conventional) {
		t.Error("Conventional create returned before the inode reached the disk")
	}
	if durableInode(fsim.SoftUpdates) {
		t.Error("soft updates create wrote the inode synchronously")
	}
	if durableInode(fsim.NoOrder) {
		t.Error("No Order create wrote the inode synchronously")
	}
}
