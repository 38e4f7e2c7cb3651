package fsck

// The incremental merge. incremental.go re-derives only the records whose
// dependency sectors a delta touches; this file re-merges only the inodes
// whose *merge output* the delta can reach, splicing every other inode's
// findings straight out of the baseline's recorded segments. The work per
// check becomes proportional to the delta's blast radius instead of
// O(NInodes + TotalFrags), but for one copy of the reference counts:
//
//   - pass 1: the changed inodes' old and new fragment claims define a
//     patch set over the baseline ownership table; a changed claimant can
//     also demote an unchanged baseline owner (the unchanged inode then
//     replays too, producing its new CrossLink finding). Claim-success
//     deltas adjust ReferencedFrags against the baseline's per-inode
//     success counts.
//   - pass 2: a directory replays if its parse changed or if an entry of
//     its names a changed inode whose merge-visible signature (validity or
//     mode) changed — found through the baseline's reverse index. Refs
//     starts as a copy of the baseline's counts; the replayed directories'
//     old entries are withdrawn from it and their current ones added.
//   - pass 3: an inode replays if its record changed or its reference
//     count moved.
//   - pass 4: an inode replays if its record changed or its bitmap bit
//     differs between delta and base; the fragment aggregates adjust by
//     the contribution deltas of patched (ownership-changed) and
//     bit-flipped fragments only.
//
// Soundness rests on the same purity argument as record caching: each
// pass's per-inode output is a function of that inode's record plus the
// specific cross-inode state tracked here (ownership, target signatures,
// reference counts, bitmap bits). Anything outside this file's reach —
// a baseline with cross-links (ownership is then not a single-claimant
// table), an invalid root (the full merge returns early), or an oversized
// delta — falls back to the full epoch merge in incremental.go. The
// differential oracles (fsck and crashmc incremental tests) pin both
// paths to CheckImage bit for bit.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"metaupdate/internal/ffs"
)

// incScratch is the incremental merge's reusable per-checker state: stamped
// sets, so nothing is cleared between checks.
type incScratch struct {
	patched  stampSet[int32] // data fragments (frag - DataStart) a changed inode claims or claimed
	patchOwn []ffs.Ino       // a patched fragment's owner after the delta (0 = none)

	r1, d2, p3, p4 stampSet[ffs.Ino] // the inodes each pass replays
}

func (s *incScratch) sized(nino, nfrag int) {
	s.r1.sized(nino)
	s.d2.sized(nino)
	s.p3.sized(nino)
	s.p4.sized(nino)
	s.patched.sized(nfrag)
	if len(s.patchOwn) != nfrag {
		s.patchOwn = make([]ffs.Ino, nfrag)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// splicer copies one pass's baseline findings into a report around the
// inodes the pass replays, which it must be given in ascending order.
type splicer struct {
	rep  *Report
	src  []Finding
	segs []inoSeg // the pass's segments not yet copied or dropped
}

// upTo copies the baseline segments of the inodes below ino and drops
// ino's own: the caller replays ino next.
func (s *splicer) upTo(ino ffs.Ino) {
	for len(s.segs) > 0 && s.segs[0].ino <= ino {
		if sg := s.segs[0]; sg.ino < ino {
			s.rep.Findings = append(s.rep.Findings, s.src[sg.start:sg.end]...)
		}
		s.segs = s.segs[1:]
	}
}

// rest copies the segments after the last replayed inode.
func (s *splicer) rest() {
	for _, sg := range s.segs {
		s.rep.Findings = append(s.rep.Findings, s.src[sg.start:sg.end]...)
	}
	s.segs = nil
}

// diffBits calls fn with every bit, counted from the start of the bitmap,
// that differs between old and cur inside the dirty sectors. Both are
// views of the bitmap at image offset off.
func diffBits(old, cur []byte, off int64, dirty []int64, fn func(bit int64)) {
	for _, s := range dirty {
		lo, hi := max(s*sectorSize, off)-off, min((s+1)*sectorSize-off, int64(len(old)))
		for i := lo; i < hi; {
			// A delta usually flips a handful of bits in a 512-byte
			// sector: skip equal stretches a word at a time.
			if hi-i >= 8 && binary.LittleEndian.Uint64(old[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
				i += 8
				continue
			}
			for x := old[i] ^ cur[i]; x != 0; x &= x - 1 {
				fn(i*8 + int64(bits.TrailingZeros8(x)))
			}
			i++
		}
	}
}

// tryIncMerge attempts the spliced merge of img into dc.rep. It returns
// false, leaving dc.rep untouched, when the baseline or delta is outside
// the fast path's reach; the caller then runs the full epoch merge.
func (dc *DeltaChecker) tryIncMerge(img DeltaImage, dirty []int64) bool {
	art := &dc.bl.art
	sb := &dc.bl.sb
	if !art.conflictFree || !art.rootOK {
		return false
	}
	if len(dc.dirtyInos.list)*8 > int(sb.NInodes) {
		return false // blast radius too wide; the full merge is cheaper
	}
	root := dc.inodeRec(ffs.RootIno)
	if !root.alloc || !root.ok || !root.ip.IsDir() {
		return false // full merge early-returns; splicing doesn't apply
	}
	inc := &dc.inc
	changed := dc.dirtyInos.list
	slices.Sort(changed)

	// ---- Pass 1: ownership patches ----
	// Mark every fragment referenced by a changed inode's old or new
	// claims; seed each with its surviving baseline owner.
	inc.patched.reset()
	mark := func(r *inodeRec) {
		for i := range r.steps {
			st := &r.steps[i]
			if !st.claim() {
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				idx := f - sb.DataStart
				if !inc.patched.add(idx) {
					continue
				}
				if u := art.ownBase[idx]; u != 0 && !dc.dirtyInos.has(u) {
					inc.patchOwn[idx] = u // unchanged claimant keeps its claim
				} else {
					inc.patchOwn[idx] = 0
				}
			}
		}
	}
	for _, c := range changed {
		if old := &dc.bl.st.inodes[c]; old.alloc {
			mark(old)
		}
		if fresh := &dc.freshIno[c]; fresh.alloc {
			mark(fresh)
		}
	}
	// First (lowest-inode) claimant wins, exactly like ascending merge
	// order: changed is sorted, so the min-update settles each patched
	// fragment's winner.
	for _, c := range changed {
		fresh := &dc.freshIno[c]
		if !fresh.alloc {
			continue
		}
		for i := range fresh.steps {
			st := &fresh.steps[i]
			if !st.claim() {
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				idx := f - sb.DataStart
				if po := inc.patchOwn[idx]; po == 0 || c < po {
					inc.patchOwn[idx] = c
				}
			}
		}
	}
	// Replay set: the changed inodes plus any unchanged owner a patch
	// demoted (its claims now cross-link against the new winner).
	inc.r1.reset()
	for _, c := range changed {
		inc.r1.add(c)
	}
	for _, idx := range inc.patched.list {
		if u := art.ownBase[idx]; u != 0 && !dc.dirtyInos.has(u) && inc.patchOwn[idx] != u {
			inc.r1.add(u)
		}
	}
	slices.Sort(inc.r1.list)

	// ---- Pass 1 emission and counters ----
	rep := &dc.rep
	rep.Findings = rep.Findings[:0]
	rep.Refs = append(rep.Refs[:0], art.rep.Refs...)
	alloc := art.rep.AllocatedInodes
	frags := art.rep.ReferencedFrags
	for _, c := range changed {
		alloc += b2i(dc.freshIno[c].alloc) - b2i(dc.bl.st.inodes[c].alloc)
	}
	sp := splicer{rep, art.rep.Findings, art.segs[0]}
	for _, ino := range inc.r1.list {
		sp.upTo(ino)
		r := dc.inodeRec(ino)
		if !r.alloc {
			frags -= int(art.success[ino])
			continue
		}
		success := 0
		for i := range r.steps {
			st := &r.steps[i]
			if !st.claim() {
				rep.Findings = append(rep.Findings, Finding{Kind: Kind(st.kind), Ino: ino, Detail: st.detail})
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				idx := f - sb.DataStart
				owner := art.ownBase[idx]
				if inc.patched.has(idx) {
					owner = inc.patchOwn[idx]
				}
				if owner != ino {
					rep.add(CrossLink, ino, "fragment %d also owned by inode %d", f, owner)
					continue
				}
				success++
			}
		}
		frags += success - int(art.success[ino])
	}
	sp.rest()
	rep.AllocatedInodes = alloc
	rep.ReferencedFrags = frags

	// ---- Pass 2: affected directories ----
	inc.d2.reset()
	for _, d := range dc.dirtyDirs.list {
		inc.d2.add(d)
	}
	for _, c := range changed {
		old, fresh := &dc.bl.st.inodes[c], &dc.freshIno[c]
		oldV, newV := old.alloc && old.ok, fresh.alloc && fresh.ok
		if oldV != newV || old.ip.Mode != fresh.ip.Mode {
			// The inode looks different to directory entries naming it.
			for _, d := range art.refDirs[c] {
				inc.d2.add(d)
			}
		}
		if (oldV && old.ip.IsDir()) || (newV && fresh.ip.IsDir()) {
			inc.d2.add(c)
		}
	}
	slices.Sort(inc.d2.list)

	// Withdraw the affected directories' baseline Refs contributions (the
	// replay below adds the current ones) and note every target either
	// parse names for the pass-3 sweep.
	inc.p3.reset()
	note := func(dr *dirRec, refs int) {
		for i := range dr.steps {
			if st := &dr.steps[i]; !st.bad && uint32(st.ino) < sb.NInodes {
				rep.Refs[st.ino] += refs
				if st.ino >= 2 {
					inc.p3.add(st.ino)
				}
			}
		}
	}
	for _, d := range inc.d2.list {
		if old := &dc.bl.st.inodes[d]; old.alloc && old.ok && old.ip.IsDir() {
			note(&dc.bl.st.dirs[d], -1)
		}
		if r := dc.inodeRec(d); r.alloc && r.ok && r.ip.IsDir() {
			note(dc.dirRec(d), 0)
		}
	}
	sp = splicer{rep, art.rep.Findings, art.segs[1]}
	for _, d := range inc.d2.list {
		sp.upTo(d)
		if r := dc.inodeRec(d); r.alloc && r.ok && r.ip.IsDir() {
			mergeDir(sb, dc, d, dc.dirRec(d), rep)
		}
	}
	sp.rest()

	// ---- Pass 3: changed records or moved reference counts ----
	for _, c := range changed {
		inc.p3.add(c)
	}
	// Keep only inos whose count actually moved or record changed.
	inc.p3.list = slices.DeleteFunc(inc.p3.list, func(t ffs.Ino) bool {
		return !dc.dirtyInos.has(t) && rep.Refs[t] == art.rep.Refs[t]
	})
	slices.Sort(inc.p3.list)
	sp = splicer{rep, art.rep.Findings, art.segs[2]}
	for _, ino := range inc.p3.list {
		sp.upTo(ino)
		if r := dc.inodeRec(ino); r.alloc && r.ok {
			mergeLink(&r.ip, ino, rep.Refs[ino], rep)
		}
	}
	sp.rest()

	// ---- Pass 4: inode bitmap ----
	base := dc.bl.base
	ibmOff := int64(sb.IBmapStart) * ffs.FragSize
	ibmLen := (int64(sb.NInodes) + 7) / 8
	ibm := img.Range(ibmOff, ibmLen)
	inc.p4.reset()
	for _, c := range changed {
		inc.p4.add(c)
	}
	diffBits(base.Range(ibmOff, ibmLen), ibm, ibmOff, dirty, func(bit int64) {
		if bit >= 2 && bit < int64(sb.NInodes) {
			inc.p4.add(ffs.Ino(bit))
		}
	})
	slices.Sort(inc.p4.list)
	sp = splicer{rep, art.rep.Findings, art.segs[3]}
	for _, ino := range inc.p4.list {
		sp.upTo(ino)
		r := dc.inodeRec(ino)
		mergeIbm(r.alloc && r.ok, ibm[ino/8]&(1<<(uint(ino)%8)) != 0, ino, rep)
	}
	sp.rest()

	// ---- Pass 4: fragment aggregates by contribution delta ----
	fbmOff := int64(sb.FBmapStart) * ffs.FragSize
	fbmLen := (int64(sb.TotalFrags) + 7) / 8
	baseFbm := base.Range(fbmOff, fbmLen)
	deltaFbm := img.Range(fbmOff, fbmLen)
	fbit := func(bm []byte, f int32) bool { return bm[f/8]&(1<<(uint(f)%8)) != 0 }
	stale, leaks := art.aggStale, art.aggLeaks
	for _, idx := range inc.patched.list {
		f := idx + sb.DataStart
		oldOwned, newOwned := art.ownBase[idx] != 0, inc.patchOwn[idx] != 0
		oldSet, newSet := fbit(baseFbm, f), fbit(deltaFbm, f)
		stale += b2i(newOwned && !newSet) - b2i(oldOwned && !oldSet)
		leaks += b2i(!newOwned && newSet) - b2i(!oldOwned && oldSet)
	}
	diffBits(baseFbm, deltaFbm, fbmOff, dirty, func(bit int64) {
		f := int32(bit)
		if f >= sb.DataStart && f < sb.TotalFrags && !inc.patched.has(f-sb.DataStart) {
			owned := art.ownBase[f-sb.DataStart] != 0
			newSet := fbit(deltaFbm, f)
			stale += b2i(owned && !newSet) - b2i(owned && newSet)
			leaks += b2i(!owned && newSet) - b2i(!owned && !newSet)
		}
	})
	mergeFragAgg(stale, leaks, rep)
	return true
}
