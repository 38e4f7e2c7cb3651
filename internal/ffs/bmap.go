package ffs

import (
	"encoding/binary"
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/sim"
)

// Block map: translating file block indices to fragment addresses, growing
// files (including FFS fragment extension: a file's final partial block is
// a 1..8 fragment run that grows in place when the neighbouring fragments
// are free and must otherwise move to a new run — the "special case" the
// paper's soft-updates appendix discusses), and collecting every fragment
// run of a file for truncation.

func getPtr(b []byte, off int) int32 {
	return int32(binary.LittleEndian.Uint32(b[off:]))
}

func setPtr(b []byte, off int, v int32) {
	binary.LittleEndian.PutUint32(b[off:], uint32(v))
}

// ptrLoc describes where the pointer for a given file block lives.
type ptrLoc struct {
	buf     *cache.Buf // inode table block or indirect block
	off     int        // byte offset of the int32 pointer within buf.Data
	isIndir bool       // pointer lives in an indirect block
}

// ptrTrees are the inode's two trees of pointer blocks: where the root
// pointer sits in the inode, the first file block the tree maps and how many
// file blocks lie beneath the root pointer. A pointer block divides what
// lies beneath its own pointer among its PtrsPerBlock slots; locatePtr
// descends one path of a tree, collectRuns all of them.
var ptrTrees = [2]struct{ inoOff, base, span int }{
	{InoIndirOff, NDirect, PtrsPerBlock},
	{InoDindirOff, NDirect + PtrsPerBlock, PtrsPerBlock * PtrsPerBlock},
}

// locatePtr finds the pointer slot for file block bi of inode ino, reading
// the pointer blocks on the way from ib, whose pointers — unlike the decoded
// ip's — are always current. When alloc is true, missing pointer blocks are
// allocated (ordered as metadata allocations); when false, a zero pointer
// anywhere returns ok=false.
func (fs *FS) locatePtr(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int, bi int, alloc bool) (ptrLoc, bool, error) {
	if bi < 0 || bi >= MaxBlocks {
		panic(fmt.Sprintf("ffs: block index %d out of range", bi))
	}
	if bi < NDirect {
		return ptrLoc{buf: ib, off: ioff + InoDirectOff(bi)}, true, nil
	}
	t := ptrTrees[0]
	if bi >= ptrTrees[1].base {
		t = ptrTrees[1]
	}
	loc := ptrLoc{buf: ib, off: ioff + t.inoOff}
	for span := t.span; span > 1; {
		frag := getPtr(loc.buf.Data, loc.off)
		if frag == 0 {
			if !alloc {
				return ptrLoc{}, false, nil
			}
			var err error
			if frag, err = fs.allocIndirect(p, ino, ip, ib, ioff, loc); err != nil {
				return ptrLoc{}, false, err
			}
		}
		nb, err := fs.cache.Bread(p, int64(frag), BlockFrags)
		if err != nil {
			return ptrLoc{}, false, err
		}
		span /= PtrsPerBlock
		loc = ptrLoc{buf: nb, off: (bi - t.base) / span % PtrsPerBlock * 4, isIndir: true}
	}
	return loc, true, nil
}

// allocIndirect allocates a zero-filled pointer block for the empty slot at
// loc and returns its address.
func (fs *FS) allocIndirect(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int, loc ptrLoc) (int32, error) {
	defer loc.buf.Hold().Unhold()
	near := ip
	if loc.isIndir {
		near = nil // below the inode, only a recorded preference places the block
	}
	frag, err := fs.allocFrags(p, BlockFrags, fs.preferredCG(ino, near))
	if err != nil {
		return 0, err
	}
	nb := fs.cache.Getblk(p, int64(frag), BlockFrags)
	fs.allocate(p, &AllocRec{NewBuf: nb, NewFrag: frag, NewNFr: BlockFrags, IsIndir: true},
		loc, ino, ip, ib, ioff, ip.Size)
	return frag, nil
}

// allocate is block allocation. rec describes the new block, initialized
// in memory (NewBuf, NewFrag, NewNFr, IsDir/IsIndir, and for a run that grew
// or moved OldPtr, MovedFrom, OldBuf); loc is the slot that will point to
// it, in inode ino (ip, decoded from ioff in the held ib). AllocInit -> the
// pointer (unless the run grew where it was) and the size that makes the new
// bytes part of the file are stored, so that one allocation dependency
// covers the pair (the allocdirect state of the paper's appendix) ->
// AllocPtr.
func (fs *FS) allocate(p *sim.Proc, rec *AllocRec, loc ptrLoc, ino Ino, ip *Inode, ib *cache.Buf, ioff int, newSize uint64) {
	rec.FS, rec.OwnerIno = fs, ino
	rec.OwnerBuf, rec.PtrOff, rec.OwnerIsIndir = loc.buf, loc.off, loc.isIndir
	rec.OldSize, rec.NewSize = ip.Size, newSize
	grows := newSize != ip.Size // a pointer block adds nothing to the file
	fs.ord.AllocInit(p, rec)
	if rec.OldPtr != rec.NewFrag {
		fs.cache.PrepareModify(p, loc.buf)
		setPtr(loc.buf.Data, loc.off, rec.NewFrag)
	}
	if grows {
		fs.updateSizeRaw(p, ip, ib, ioff, newSize)
	}
	fs.ord.AllocPtr(p, rec)
	if grows && loc.isIndir {
		// The pointer's ordering rode the indirect block; the size bytes
		// live in the inode block, which must also reach the disk
		// eventually.
		fs.ord.MetaUpdate(p, ib)
	}
}

// blockRunLen returns the run length in fragments of file block bi for a
// file of the given size (bi must be < blocksOf(size)).
func blockRunLen(size uint64, bi int) int {
	if bi == blocksOf(size)-1 {
		return lastBlockFrags(size)
	}
	return BlockFrags
}

// blockPtr finds existing file block bi: where its pointer lives and the
// fragment address there.
func (fs *FS) blockPtr(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff, bi int) (ptrLoc, int32, error) {
	loc, ok, err := fs.locatePtr(p, ino, ip, ib, ioff, bi, false)
	if err != nil {
		return loc, 0, err
	}
	if ok {
		if frag := getPtr(loc.buf.Data, loc.off); frag != 0 {
			return loc, frag, nil
		}
	}
	return loc, 0, fmt.Errorf("ffs: hole at block %d of inode %d", bi, ino)
}

// readBlock returns the buffer for file block bi (read path).
func (fs *FS) readBlock(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff, bi int) (*cache.Buf, error) {
	_, frag, err := fs.blockPtr(p, ino, ip, ib, ioff, bi)
	if err != nil {
		return nil, err
	}
	return fs.cache.Bread(p, int64(frag), blockRunLen(ip.Size, bi))
}

// growBlock makes file block bi exist with wantNF fragments, extending or
// moving the existing partial run if needed, and returns its buffer. fill
// is called to (re)initialize the buffer before ordering hooks fire when
// the block is new; for existing blocks the buffer contents are preserved.
//
// isDir marks directory blocks (always initialization-ordered). newSize is
// the inode size that will be in effect after the caller's write — allocate
// stores it into the inode together with the pointer.
func (fs *FS) growBlock(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff, bi int, wantNF int, newSize uint64, isDir bool, fill func(data []byte)) (*cache.Buf, error) {
	// The inode-table block must survive the allocation sleeps below: a
	// concurrent (or our own) cache eviction replacing it would orphan the
	// pointer/size updates we are about to store.
	defer ib.Hold().Unhold()
	curBlocks := blocksOf(ip.Size)
	if bi > curBlocks {
		// Files grow densely (no holes).
		return nil, fmt.Errorf("ffs: sparse write at block %d of inode %d", bi, ino)
	}
	if bi == curBlocks {
		// Brand-new block.
		frag, err := fs.allocFrags(p, wantNF, fs.preferredCG(ino, ip))
		if err != nil {
			return nil, err
		}
		loc, _, err := fs.locatePtr(p, ino, ip, ib, ioff, bi, true)
		if err != nil {
			// Nothing points at the new fragments yet: free them at once.
			fs.ApplyFree(p, &FreeRec{FS: fs, Frags: FragRuns{head: [4]FragRun{{Start: frag, N: wantNF}}, n: 1}})
			return nil, err
		}
		defer loc.buf.Hold().Unhold()
		nb := fs.cache.Getblk(p, int64(frag), wantNF)
		defer nb.Hold().Unhold()
		if fill != nil {
			fill(nb.Data)
		}
		fs.allocate(p, &AllocRec{NewBuf: nb, NewFrag: frag, NewNFr: wantNF, IsDir: isDir},
			loc, ino, ip, ib, ioff, newSize)
		return nb, nil
	}

	oldNF := blockRunLen(ip.Size, bi)
	loc, frag, err := fs.blockPtr(p, ino, ip, ib, ioff, bi)
	if err != nil {
		return nil, err
	}
	b, err := fs.cache.Bread(p, int64(frag), oldNF)
	if err != nil {
		return nil, err
	}
	defer b.Hold().Unhold()
	if wantNF <= oldNF && fill == nil {
		// Existing block is already big enough.
		fs.updateSize(p, ip, ib, ioff, newSize)
		return b, nil
	}
	defer loc.buf.Hold().Unhold()
	rec := &AllocRec{NewBuf: b, NewFrag: frag, NewNFr: oldNF, IsDir: isDir, OldPtr: frag}
	switch {
	case wantNF <= oldNF:
		// A fresh chunk inside already-allocated space (a directory growing
		// into the unused tail of its fragment): the size bump points at
		// bytes the old size never covered, so the chunk's initialization
		// must be ordered before the size can reach the disk (rule 1),
		// exactly as for a newly allocated block.
		fs.cache.PrepareModify(p, b)
	case fs.tryExtendFrags(p, frag, oldNF, wantNF):
		// In place: same address, more fragments. The added fragments are
		// an ordered allocation (they carry the new size).
		fs.cache.PrepareModify(p, b)
		fs.cache.Resize(b, wantNF)
		rec.NewNFr = wantNF
	default:
		// Move: allocate a new run, copy, retarget pointer, free old run.
		newFrag, err := fs.allocFrags(p, wantNF, fs.cgOfFrag(frag))
		if err != nil {
			return nil, err
		}
		nb := fs.cache.Getblk(p, int64(newFrag), wantNF)
		defer nb.Hold().Unhold()
		fs.charge(p, fs.cfg.Costs.PerKBCopy*sim.Duration(oldNF))
		copy(nb.Data, b.Data)
		if isDir {
			fs.dirIdx.moved(ino, b, nb)
		}
		rec.NewBuf, rec.NewFrag, rec.NewNFr = nb, newFrag, wantNF
		rec.MovedFrom, rec.OldBuf = &FragRun{Start: frag, N: oldNF}, b
	}
	if fill != nil {
		fill(rec.NewBuf.Data)
	}
	fs.allocate(p, rec, loc, ino, ip, ib, ioff, newSize)
	return rec.NewBuf, nil
}

// updateSize stores a new size via MetaUpdate (no allocation involved).
// Only the size field is touched: the decoded inode struct may be stale
// with respect to pointers stored directly into the buffer by growBlock,
// so a full re-encode would wipe them.
func (fs *FS) updateSize(p *sim.Proc, ip *Inode, ib *cache.Buf, ioff int, newSize uint64) {
	if ip.Size == newSize {
		return
	}
	fs.updateSizeRaw(p, ip, ib, ioff, newSize)
	fs.ord.MetaUpdate(p, ib)
}

// updateSizeRaw stores size as part of an allocation (the AllocPtr hook
// that follows owns the ordering; no MetaUpdate).
func (fs *FS) updateSizeRaw(p *sim.Proc, ip *Inode, ib *cache.Buf, ioff int, newSize uint64) {
	ip.Size = newSize
	fs.cache.PrepareModify(p, ib)
	binary.LittleEndian.PutUint64(ib.Data[ioff+InoSizeOff:], newSize)
}

// collectRuns gathers every fragment run of the file, including indirect
// blocks themselves, for truncation. On a read error (unreadable indirect
// block on a faulted disk) it returns the runs gathered so far together
// with the error: callers in hook context free the partial set and leak
// the rest — fsck's free-map reconciliation is the backstop.
func (fs *FS) collectRuns(p *sim.Proc, ip *Inode, runs *FragRuns) error {
	nblocks := blocksOf(ip.Size)
	for bi := 0; bi < nblocks && bi < NDirect; bi++ {
		if ip.Direct[bi] != 0 {
			runs.Add(FragRun{Start: ip.Direct[bi], N: blockRunLen(ip.Size, bi)})
		}
	}
	for i, root := range [2]int32{ip.Indir, ip.Dindir} {
		if err := fs.collectTree(p, runs, root, ptrTrees[i].base, ptrTrees[i].span, ip.Size); err != nil {
			return err
		}
	}
	return nil
}

// collectTree appends the runs beneath pointer block frag — which maps span
// file blocks from base on — and then the block itself.
func (fs *FS) collectTree(p *sim.Proc, runs *FragRuns, frag int32, base, span int, size uint64) error {
	if frag == 0 {
		return nil
	}
	nb, err := fs.cache.Bread(p, int64(frag), BlockFrags)
	if err != nil {
		return err
	}
	span /= PtrsPerBlock
	for i := 0; i < PtrsPerBlock && base+i*span < blocksOf(size); i++ {
		ptr := getPtr(nb.Data, i*4)
		if span > 1 {
			if err := fs.collectTree(p, runs, ptr, base+i*span, span, size); err != nil {
				return err
			}
		} else if ptr != 0 {
			runs.Add(FragRun{Start: ptr, N: blockRunLen(size, base+i)})
		}
	}
	runs.Add(FragRun{Start: frag, N: BlockFrags})
	return nil
}
