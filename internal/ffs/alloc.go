package ffs

import (
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/sim"
)

// Free-map management. Both bitmaps are ordinary cached metadata: updates
// go through the ordering scheme's MetaUpdate hook (delayed writes; free
// maps need no ordering of their own because fsck reconstructs them — the
// paper's schemes all rely on fsck for free-map reconciliation after a
// crash).

// ibmapBuf returns the (whole) inode bitmap buffer.
func (fs *FS) ibmapBuf(p *sim.Proc) (*cache.Buf, error) {
	return fs.cache.Bread(p, int64(fs.sb.IBmapStart), int(fs.sb.IBmapFrags()))
}

// fbmapBuf returns the (whole) fragment bitmap buffer.
func (fs *FS) fbmapBuf(p *sim.Proc) (*cache.Buf, error) {
	return fs.cache.Bread(p, int64(fs.sb.FBmapStart), int(fs.sb.FBmapFrags()))
}

func bitGet(bm []byte, i int32) bool { return bm[i/8]&(1<<(uint(i)%8)) != 0 }
func bitSet(bm []byte, i int32)      { bm[i/8] |= 1 << (uint(i) % 8) }
func bitClr(bm []byte, i int32)      { bm[i/8] &^= 1 << (uint(i) % 8) }

// blockRunFree reports whether frags [start, start+n), which lie in one
// block, are all free: a block's fragments are one bitmap byte, so the run
// is one mask test.
func blockRunFree(bm []byte, start int32, n int) bool {
	mask := byte(uint(1)<<n-1) << uint(start%BlockFrags)
	return bm[start/BlockFrags]&mask == 0
}

// firstFit returns the first run of n free fragments in [from, to) that
// does not cross a block boundary: blocks in order, and within a block each
// start that keeps the run inside it. A full block is skipped by its byte.
func firstFit(bm []byte, from, to int32, n int) (int32, bool) {
	blk := from / BlockFrags * BlockFrags
	if blk < from {
		blk += BlockFrags
	}
	for ; blk+BlockFrags <= to; blk += BlockFrags {
		if bm[blk/BlockFrags] == 0xFF {
			continue
		}
		for s := blk; s+int32(n) <= blk+BlockFrags; s++ {
			if blockRunFree(bm, s, n) {
				return s, true
			}
		}
	}
	return 0, false
}

// Cylinder-group geometry: the data region is carved into allocation
// groups, as in FFS. New directories rotate across groups; files allocate
// in their directory's group and spill to the following ones when full.
// This is what gives multi-user workloads the scattered layout whose seek
// traffic the disk scheduler's (ordering-constrained) freedom matters for.
const cgFrags = 2048 // 2 MB groups

// nCG returns the number of allocation groups.
func (fs *FS) nCG() int32 {
	n := (fs.sb.TotalFrags - fs.sb.DataStart) / cgFrags
	if n < 1 {
		n = 1
	}
	return n
}

// cgStart returns the first fragment of group cg.
func (fs *FS) cgStart(cg int32) int32 {
	return fs.sb.DataStart + cg%fs.nCG()*cgFrags
}

// cgEnd returns the fragment just past group cg.
func (fs *FS) cgEnd(cg int32) int32 {
	end := fs.cgStart(cg) + cgFrags
	if end > fs.sb.TotalFrags {
		end = fs.sb.TotalFrags
	}
	return end
}

// cgOfFrag returns the group containing frag.
func (fs *FS) cgOfFrag(frag int32) int32 {
	if frag < fs.sb.DataStart {
		return 0
	}
	return (frag - fs.sb.DataStart) / cgFrags
}

// preferredCG returns the allocation group for ino: its recorded
// preference (directories get a fresh group, files inherit their
// directory's), or the group of its first data block.
func (fs *FS) preferredCG(ino Ino, ip *Inode) int32 {
	if cg := fs.inodes.Get(int64(ino)).cg; cg != 0 {
		return cg - 1
	}
	if ip != nil && ip.Direct[0] != 0 {
		return fs.cgOfFrag(ip.Direct[0])
	}
	return 0
}

// assignCG records ino's allocation group.
func (fs *FS) assignCG(ino Ino, cg int32) { fs.inode(ino).cg = cg%fs.nCG() + 1 }

// nextDirCG rotates new directories across groups (the FFS policy of
// spreading directories out).
func (fs *FS) nextDirCG() int32 {
	fs.dirCGRotor = (fs.dirCGRotor + 1) % fs.nCG()
	return fs.dirCGRotor
}

// allocFrags allocates a run of n (1..8) fragments that does not cross a
// block boundary, preferring allocation group cg and spilling forward.
func (fs *FS) allocFrags(p *sim.Proc, n int, cg int32) (int32, error) {
	if n < 1 || n > BlockFrags {
		panic(fmt.Sprintf("ffs: allocFrags(%d)", n))
	}
	fs.lockAlloc(p)
	defer fs.allocMu.Unlock(fs.eng)
	fs.charge(p, fs.cfg.Costs.AllocOp)

	fb, err := fs.fbmapBuf(p)
	if err != nil {
		return 0, err
	}
	defer fb.Hold().Unhold()
	bm := fb.Data
	// Scan the preferred group, then the following groups, wrapping.
	ngroups := fs.nCG()
	var start int32
	ok := false
	for g := int32(0); g < ngroups && !ok; g++ {
		grp := (cg + g) % ngroups
		start, ok = firstFit(bm, fs.cgStart(grp), fs.cgEnd(grp), n)
	}
	if !ok {
		return 0, ErrNoSpace
	}
	fs.cache.PrepareModify(p, fb)
	for i := int32(0); i < int32(n); i++ {
		bitSet(bm, start+i)
	}
	fs.ord.MetaUpdate(p, fb)
	return start, nil
}

// tryExtendFrags grows the run [start, start+oldN) to newN fragments in
// place if the following fragments are free (and stay inside the block).
func (fs *FS) tryExtendFrags(p *sim.Proc, start int32, oldN, newN int) bool {
	if start%BlockFrags+int32(newN) > BlockFrags {
		return false
	}
	fs.lockAlloc(p)
	defer fs.allocMu.Unlock(fs.eng)
	fs.charge(p, fs.cfg.Costs.AllocOp)
	fb, err := fs.fbmapBuf(p)
	if err != nil {
		return false // cannot extend; the caller falls back to a move
	}
	defer fb.Hold().Unhold()
	if !blockRunFree(fb.Data, start+int32(oldN), newN-oldN) {
		return false
	}
	fs.cache.PrepareModify(p, fb)
	for i := oldN; i < newN; i++ {
		bitSet(fb.Data, start+int32(i))
	}
	fs.ord.MetaUpdate(p, fb)
	return true
}

// allocInode allocates a free inode number.
func (fs *FS) allocInode(p *sim.Proc) (Ino, error) {
	fs.lockAlloc(p)
	defer fs.allocMu.Unlock(fs.eng)
	fs.charge(p, fs.cfg.Costs.AllocOp)
	ib, err := fs.ibmapBuf(p)
	if err != nil {
		return 0, err
	}
	defer ib.Hold().Unhold()
	bm := ib.Data
	n := Ino(fs.sb.NInodes)
	scan := func(from, to Ino) (Ino, bool) {
		for ino := from; ino < to; ino++ {
			if !bitGet(bm, int32(ino)) {
				return ino, true
			}
		}
		return 0, false
	}
	ino, ok := scan(fs.inoRotor, n)
	if !ok {
		ino, ok = scan(RootIno+1, fs.inoRotor)
	}
	if !ok {
		return 0, ErrNoInodes
	}
	fs.cache.PrepareModify(p, ib)
	bitSet(bm, int32(ino))
	fs.inoRotor = ino + 1
	if fs.inoRotor >= n {
		fs.inoRotor = RootIno + 1
	}
	fs.ord.MetaUpdate(p, ib)
	return ino, nil
}

// ApplyFree releases the resources named by rec: cached buffers are
// dropped, fragment bits cleared, and the inode bit cleared when rec frees
// an inode. Ordering schemes call this at the moment their discipline
// allows re-use (immediately for No Order; after the relevant disk write
// for Conventional, Flag and Chains; from a workitem for Soft Updates).
func (fs *FS) ApplyFree(p *sim.Proc, rec *FreeRec) {
	fs.finish(&rec.once, "ApplyFree")
	fs.lockAlloc(p)
	defer fs.allocMu.Unlock(fs.eng)
	fs.charge(p, fs.cfg.Costs.AllocOp)
	fb, err := fs.fbmapBuf(p)
	if err != nil {
		// Hook context: no caller to return the error to. Leaking the
		// resources (bits stay set) is the safe degradation — fsck's
		// free-map reconciliation reclaims them after the next crash.
		return
	}
	defer fb.Hold().Unhold()
	fs.cache.PrepareModify(p, fb)
	for _, run := range rec.Frags.All() {
		fs.cache.Drop(int64(run.Start))
		for i := int32(0); i < int32(run.N); i++ {
			bitClr(fb.Data, run.Start+i)
		}
	}
	fs.ord.MetaUpdate(p, fb)
	if rec.FreeIno != 0 {
		ib, err := fs.ibmapBuf(p)
		if err != nil {
			return
		}
		defer ib.Hold().Unhold()
		fs.cache.PrepareModify(p, ib)
		bitClr(ib.Data, int32(rec.FreeIno))
		fs.ord.MetaUpdate(p, ib)
	}
}
