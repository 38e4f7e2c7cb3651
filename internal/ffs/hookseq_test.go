package ffs_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// hookRecorder is No Order with a log: every hook the file system calls is
// written down with what its record says and with what the owner, inode or
// directory buffer holds at that instant — which is how the log shows on
// which side of the in-memory store a hook fired. No Order finishes removals
// and frees inside the hook, so the deferred halves (FinishRemove's and
// ApplyFree's own hook calls) land in the log right behind it.
type hookRecorder struct {
	*ordering.NoOrder
	fs  *ffs.FS
	sb  ffs.Superblock
	log []string
}

func (h *hookRecorder) Start(fs *ffs.FS) {
	h.fs, h.sb = fs, fs.Superblock()
	h.NoOrder.Start(fs)
}

func (h *hookRecorder) logf(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

// inode decodes ino from its (resident) table block without yielding.
func (h *hookRecorder) inode(ino ffs.Ino) ffs.Inode {
	frag, off := h.sb.InodeFrag(ino)
	b := h.fs.Cache().Lookup(int64(frag))
	if b == nil {
		return ffs.Inode{}
	}
	return ffs.DecodeInode(b.Data[off : off+ffs.InodeSize])
}

func (h *hookRecorder) region(b *cache.Buf) string {
	f := int32(b.Frag)
	switch {
	case f >= h.sb.InodeStart && f < h.sb.IBmapStart:
		return "itable"
	case f == h.sb.IBmapStart:
		return "ibmap"
	case f == h.sb.FBmapStart:
		return "fbmap"
	}
	return "block"
}

func (h *hookRecorder) alloc(hook string, r *ffs.AllocRec) {
	kind := "data"
	if r.IsDir {
		kind = "dir"
	}
	if r.IsIndir {
		kind = "indir"
	}
	s := fmt.Sprintf("%s ino=%d %s nfr=%d", hook, r.OwnerIno, kind, r.NewNFr)
	if r.OwnerIsIndir {
		s += fmt.Sprintf(" owner=indir+%d", r.PtrOff)
	} else {
		// The size rides along with inode-owned pointers only.
		s += fmt.Sprintf(" owner=inode+%d size=%d->%d", r.PtrOff%ffs.InodeSize, r.OldSize, r.NewSize)
	}
	switch {
	case r.OldPtr == 0:
	case r.OldPtr == r.NewFrag:
		s += " inplace"
	default:
		s += " retarget"
	}
	if r.MovedFrom != nil {
		s += fmt.Sprintf(" vacates=%d", r.MovedFrom.N)
	}
	if r.OldBuf != nil {
		s += " copied"
	}
	stored := "other"
	switch int32(binary.LittleEndian.Uint32(r.OwnerBuf.Data[r.PtrOff:])) {
	case r.NewFrag:
		stored = "new"
	case r.OldPtr:
		stored = "old"
	}
	h.logf("%s | ptr=%s isize=%d", s, stored, h.inode(r.OwnerIno).Size)
}

func (h *hookRecorder) AllocInit(p *sim.Proc, r *ffs.AllocRec) {
	h.alloc("AllocInit", r)
	h.NoOrder.AllocInit(p, r)
}

func (h *hookRecorder) AllocPtr(p *sim.Proc, r *ffs.AllocRec) {
	h.alloc("AllocPtr", r)
	h.NoOrder.AllocPtr(p, r)
}

func (h *hookRecorder) AddInode(p *sim.Proc, r *ffs.LinkRec) {
	fresh := ""
	if r.NewInode {
		fresh = " new"
	}
	h.logf("AddInode ino=%d%s | nlink=%d", r.Ino, fresh, h.inode(r.Ino).Nlink)
	h.NoOrder.AddInode(p, r)
}

func (h *hookRecorder) AddEntry(p *sim.Proc, r *ffs.LinkRec) {
	h.logf("AddEntry ino=%d | entry=%d nlink=%d", r.Ino,
		binary.LittleEndian.Uint32(r.DirBuf.Data[r.EntryOff:]), h.inode(r.Ino).Nlink)
	h.NoOrder.AddEntry(p, r)
}

// RemoveEntry logs, beside the record, which of its two inodes the removing
// process holds locked: the locks FinishRemove, run right behind, does not
// take again.
func (h *hookRecorder) RemoveEntry(p *sim.Proc, r ffs.RemRec) {
	s := fmt.Sprintf("RemoveEntry ino=%d dir=%d", r.Ino, r.DirIno)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{h.fs.InodeLockedBy(p, r.DirIno), " dirlocked"},
		{h.fs.InodeLockedBy(p, r.Ino), " inolocked"},
		{r.LinkOnly, " linkonly"},
	} {
		if f.on {
			s += f.name
		}
	}
	// The entry's inode number is its first field: zero when the entry is
	// the first of its chunk, stale when it was coalesced into its
	// predecessor, the new target after an in-place retarget.
	stored := binary.LittleEndian.Uint32(r.DirBuf.Data[r.EntryOff:])
	h.logf("%s | entry=%d nlink=%d", s, stored, h.inode(r.Ino).Nlink)
	h.NoOrder.RemoveEntry(p, r)
}

func (h *hookRecorder) FreeBlocks(p *sim.Proc, r ffs.FreeRec) {
	// Every run with its length when they are few; always their number,
	// their total and a checksum over (start, length) in order, which pins
	// the order collectRuns walks a big file's pointer blocks in.
	var lens []string
	total, sum := 0, fnv.New32a()
	for _, run := range r.Frags.All() {
		lens = append(lens, fmt.Sprint(run.N))
		total += run.N
		fmt.Fprintf(sum, "%d+%d,", run.Start, run.N)
	}
	runs := strings.Join(lens, " ")
	if len(lens) > 8 {
		runs = "..."
	}
	ip := h.inode(r.OwnerIno)
	h.logf("FreeBlocks ino=%d runs=[%s] n=%d frags=%d sum=%08x freeino=%d | allocated=%v isize=%d", r.OwnerIno,
		runs, len(lens), total, sum.Sum32(), r.FreeIno, ip.Allocated(), ip.Size)
	h.NoOrder.FreeBlocks(p, r)
}

func (h *hookRecorder) MetaUpdate(p *sim.Proc, b *cache.Buf) {
	h.logf("MetaUpdate %s", h.region(b))
	h.NoOrder.MetaUpdate(p, b)
}

// TestStructuralChangeHookSequence is the caller-side twin of
// TestSequencedRuleTable: for every shape of the four structural changes
// (block allocation, link addition, link removal, block freeing) it pins
// the hook sequence internal/ffs produces — order.go's call-order contract,
// observed from the scheme's side.
func TestStructuralChangeHookSequence(t *testing.T) {
	h := &hookRecorder{NoOrder: ordering.NewNoOrder()}
	r := newRig(t, h, ffs.Config{})
	fs := r.fs
	const root = ffs.RootIno

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(p *sim.Proc, dir ffs.Ino, name string) ffs.Ino {
		t.Helper()
		ino, err := fs.Create(p, dir, name)
		must(err)
		return ino
	}
	mkdir := func(p *sim.Proc, dir ffs.Ino, name string) ffs.Ino {
		t.Helper()
		ino, err := fs.Mkdir(p, dir, name)
		must(err)
		return ino
	}
	kb := func(n int) []byte { return make([]byte, n<<10) }

	// Inode numbers are handed out in order from 3; the shapes below name
	// them in their expected logs.
	var f, g, d ffs.Ino
	shapes := []struct {
		name  string
		setup func(p *sim.Proc)
		act   func(p *sim.Proc)
		want  []string
	}{
		{"create", nil, func(p *sim.Proc) { f = create(p, root, "f") }, []string{
			"MetaUpdate ibmap",
			"AddInode ino=3 new | nlink=1",
			"AddEntry ino=3 | entry=3 nlink=1",
		}},
		{"new block", nil, func(p *sim.Proc) { must(fs.WriteAt(p, f, 0, kb(1))) }, []string{
			"MetaUpdate fbmap",
			"AllocInit ino=3 data nfr=1 owner=inode+12 size=0->1024 | ptr=old isize=0",
			"AllocPtr ino=3 data nfr=1 owner=inode+12 size=0->1024 | ptr=new isize=1024",
		}},
		{"extend in place", nil, func(p *sim.Proc) { must(fs.WriteAt(p, f, 1<<10, kb(1))) }, []string{
			"MetaUpdate fbmap",
			"AllocInit ino=3 data nfr=2 owner=inode+12 size=1024->2048 inplace | ptr=new isize=1024",
			"AllocPtr ino=3 data nfr=2 owner=inode+12 size=1024->2048 inplace | ptr=new isize=2048",
		}},
		{"fragment move", func(p *sim.Proc) {
			g = create(p, root, "g")
			must(fs.WriteAt(p, g, 0, kb(1))) // takes the fragment after f's run
		}, func(p *sim.Proc) { must(fs.WriteAt(p, f, 2<<10, kb(1))) }, []string{
			"MetaUpdate fbmap",
			"AllocInit ino=3 data nfr=3 owner=inode+12 size=2048->3072 retarget vacates=2 copied | ptr=old isize=2048",
			"AllocPtr ino=3 data nfr=3 owner=inode+12 size=2048->3072 retarget vacates=2 copied | ptr=new isize=3072",
			"MetaUpdate fbmap",
		}},
		{"indirect allocation", func(p *sim.Proc) {
			must(fs.WriteAt(p, g, 1<<10, kb(ffs.NDirect*8-1)))
		}, func(p *sim.Proc) { must(fs.WriteAt(p, g, ffs.NDirect*ffs.BlockSize, kb(1))) }, []string{
			"MetaUpdate fbmap",
			"MetaUpdate fbmap",
			"AllocInit ino=4 indir nfr=8 owner=inode+60 size=98304->98304 | ptr=old isize=98304",
			"AllocPtr ino=4 indir nfr=8 owner=inode+60 size=98304->98304 | ptr=new isize=98304",
			"AllocInit ino=4 data nfr=1 owner=indir+0 | ptr=old isize=98304",
			"AllocPtr ino=4 data nfr=1 owner=indir+0 | ptr=new isize=99328",
			"MetaUpdate itable",
		}},
		{"extend in place under an indirect block", nil, func(p *sim.Proc) {
			must(fs.WriteAt(p, g, ffs.NDirect*ffs.BlockSize+1<<10, kb(1)))
		}, []string{
			"MetaUpdate fbmap",
			"AllocInit ino=4 data nfr=2 owner=indir+0 inplace | ptr=new isize=99328",
			"AllocPtr ino=4 data nfr=2 owner=indir+0 inplace | ptr=new isize=100352",
			"MetaUpdate itable",
		}},
		{"fragment move under an indirect block", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				must(fs.WriteAt(p, create(p, root, fmt.Sprint("fill", i)), 0, kb(1)))
			}
		}, func(p *sim.Proc) {
			must(fs.WriteAt(p, g, ffs.NDirect*ffs.BlockSize+2<<10, kb(1)))
		}, []string{
			"MetaUpdate fbmap",
			"AllocInit ino=4 data nfr=3 owner=indir+0 retarget vacates=2 copied | ptr=old isize=100352",
			"AllocPtr ino=4 data nfr=3 owner=indir+0 retarget vacates=2 copied | ptr=new isize=101376",
			"MetaUpdate fbmap",
			"MetaUpdate itable",
		}},
		{"double-indirect allocation", func(p *sim.Proc) {
			const upto = (ffs.NDirect + ffs.PtrsPerBlock) * ffs.BlockSize
			from := uint64(ffs.NDirect*ffs.BlockSize + 3<<10)
			must(fs.WriteAt(p, g, from, make([]byte, upto-from)))
		}, func(p *sim.Proc) {
			must(fs.WriteAt(p, g, (ffs.NDirect+ffs.PtrsPerBlock)*ffs.BlockSize, kb(8)))
		}, []string{
			"MetaUpdate fbmap",
			"MetaUpdate fbmap",
			"AllocInit ino=4 indir nfr=8 owner=inode+64 size=16875520->16875520 | ptr=old isize=16875520",
			"AllocPtr ino=4 indir nfr=8 owner=inode+64 size=16875520->16875520 | ptr=new isize=16875520",
			"MetaUpdate fbmap",
			"AllocInit ino=4 indir nfr=8 owner=indir+0 | ptr=old isize=16875520",
			"AllocPtr ino=4 indir nfr=8 owner=indir+0 | ptr=new isize=16875520",
			"AllocInit ino=4 data nfr=8 owner=indir+0 | ptr=old isize=16875520",
			"AllocPtr ino=4 data nfr=8 owner=indir+0 | ptr=new isize=16883712",
			"MetaUpdate itable",
		}},
		{"mkdir", nil, func(p *sim.Proc) { d = mkdir(p, root, "d") }, []string{
			"MetaUpdate ibmap",
			"AddInode ino=9 new | nlink=2",
			"AddInode ino=2 | nlink=3",
			"MetaUpdate fbmap",
			"AllocInit ino=9 dir nfr=1 owner=inode+12 size=0->512 | ptr=old isize=0",
			"AllocPtr ino=9 dir nfr=1 owner=inode+12 size=0->512 | ptr=new isize=512",
			"AddEntry ino=9 | entry=9 nlink=2",
			"AddEntry ino=2 | entry=2 nlink=3",
			"AddEntry ino=9 | entry=9 nlink=2",
		}},
		{"chunk fill inside an allocated fragment", func(p *sim.Proc) {
			// d's one fragment holds two chunks; fill the first.
			for i := 0; ; i++ {
				ip, err := fs.Stat(p, d)
				must(err)
				ents, err := fs.ReadDir(p, d)
				must(err)
				if ip.Size == ffs.DirChunk && len(ents) == 3 {
					return
				}
				create(p, d, fmt.Sprintf("%0120d", i))
			}
		}, func(p *sim.Proc) { create(p, d, fmt.Sprintf("%0120d", 99)) }, []string{
			"MetaUpdate ibmap",
			"AddInode ino=13 new | nlink=1",
			"AllocInit ino=9 dir nfr=1 owner=inode+12 size=512->1024 inplace | ptr=new isize=512",
			"AllocPtr ino=9 dir nfr=1 owner=inode+12 size=512->1024 inplace | ptr=new isize=1024",
			"AddEntry ino=13 | entry=13 nlink=1",
		}},
		{"link", nil, func(p *sim.Proc) { must(fs.Link(p, f, root, "f2")) }, []string{
			"AddInode ino=3 | nlink=2",
			"AddEntry ino=3 | entry=3 nlink=2",
		}},
		{"rename", nil, func(p *sim.Proc) { must(fs.Rename(p, root, "f2", d, "f3")) }, []string{
			"AddInode ino=3 | nlink=3",
			"AddEntry ino=3 | entry=3 nlink=3",
			"RemoveEntry ino=3 dir=2 dirlocked | entry=0 nlink=3",
			"MetaUpdate itable",
		}},
		{"rename with replace", nil, func(p *sim.Proc) { must(fs.Rename(p, root, "g", d, "f3")) }, []string{
			"AddInode ino=4 | nlink=2",
			"AddEntry ino=4 | entry=4 nlink=2",
			"RemoveEntry ino=3 dir=9 dirlocked | entry=4 nlink=2",
			"MetaUpdate itable",
			"RemoveEntry ino=4 dir=2 dirlocked | entry=0 nlink=2",
			"MetaUpdate itable",
		}},
		{"rename onto itself", nil, func(p *sim.Proc) { must(fs.Rename(p, d, "f3", d, "f3")) }, nil},
		{"rename a directory within a parent", func(p *sim.Proc) { mkdir(p, d, "e") },
			func(p *sim.Proc) { must(fs.Rename(p, d, "e", d, "e2")) }, []string{
				"AddInode ino=14 | nlink=3",
				"AddEntry ino=14 | entry=14 nlink=3",
				"RemoveEntry ino=14 dir=9 dirlocked linkonly | entry=0 nlink=3",
				"MetaUpdate itable",
			}},
		{"rename a directory across parents", nil,
			func(p *sim.Proc) { must(fs.Rename(p, d, "e2", root, "e")) }, []string{
				"AddInode ino=14 | nlink=3",
				"AddInode ino=2 | nlink=4",
				"AddEntry ino=14 | entry=14 nlink=3",
				"AddEntry ino=2 | entry=2 nlink=4",
				"RemoveEntry ino=9 dir=14 inolocked linkonly | entry=2 nlink=3",
				"MetaUpdate itable",
				"RemoveEntry ino=14 dir=9 dirlocked linkonly | entry=0 nlink=3",
				"MetaUpdate itable",
			}},
		{"unlink to a remaining link", func(p *sim.Proc) { must(fs.Link(p, f, root, "f4")) },
			func(p *sim.Proc) { must(fs.Unlink(p, root, "f4")) }, []string{
				"RemoveEntry ino=3 dir=2 dirlocked | entry=0 nlink=2",
				"MetaUpdate itable",
			}},
		{"unlink", nil, func(p *sim.Proc) { must(fs.Unlink(p, d, "f3")) }, []string{
			"RemoveEntry ino=4 dir=9 dirlocked | entry=0 nlink=1",
			"FreeBlocks ino=4 runs=[...] n=2064 frags=16512 sum=01b4e0bd freeino=4 | allocated=false isize=0",
			"MetaUpdate fbmap",
			"MetaUpdate ibmap",
		}},
		{"rmdir", nil, func(p *sim.Proc) { must(fs.Rmdir(p, root, "e")) }, []string{
			"RemoveEntry ino=14 dir=2 dirlocked | entry=0 nlink=2",
			"MetaUpdate itable",
			"FreeBlocks ino=14 runs=[1] n=1 frags=1 sum=e3bfc802 freeino=14 | allocated=false isize=0",
			"MetaUpdate fbmap",
			"MetaUpdate ibmap",
		}},
		{"truncate partial", func(p *sim.Proc) { must(fs.WriteAt(p, f, 3<<10, kb(15))) },
			func(p *sim.Proc) { must(fs.Truncate(p, f, 9<<10+100)) }, []string{
				"FreeBlocks ino=3 runs=[2 6] n=2 frags=8 sum=a5888454 freeino=0 | allocated=true isize=9316",
				"MetaUpdate fbmap",
			}},
		{"truncate to zero", nil, func(p *sim.Proc) { must(fs.Truncate(p, f, 0)) }, []string{
			"FreeBlocks ino=3 runs=[8 2] n=2 frags=10 sum=840535a2 freeino=0 | allocated=true isize=0",
			"MetaUpdate fbmap",
		}},
	}
	for _, sh := range shapes {
		r.run(t, func(p *sim.Proc) {
			if sh.setup != nil {
				sh.setup(p)
			}
			h.log = nil
			sh.act(p)
		})
		if strings.Join(h.log, "\n") != strings.Join(sh.want, "\n") {
			var got strings.Builder
			for _, l := range h.log {
				fmt.Fprintf(&got, "\t\t\t%q,\n", l)
			}
			t.Errorf("%s: hook sequence\n%s\nwant\n\t\t\t%s", sh.name, got.String(),
				strings.Join(sh.want, "\n\t\t\t"))
		}
	}
}
