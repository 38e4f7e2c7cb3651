package fsck

// The incremental merge. incremental.go re-derives only the records whose
// dependency sectors a delta touches; this file re-merges only the inodes
// whose *merge output* the delta can reach, splicing every other inode's
// findings straight out of the baseline's recorded segments. The work per
// check becomes proportional to the delta's blast radius instead of
// O(NInodes + TotalFrags):
//
//   - pass 1: the changed inodes' old and new fragment claims define a
//     patch set over the baseline ownership table; a changed claimant can
//     also demote an unchanged baseline owner (the unchanged inode then
//     replays too, producing its new CrossLink finding). Claim-success
//     deltas adjust ReferencedFrags against the baseline's per-inode
//     success counts.
//   - pass 2: a directory replays if its parse changed or if an entry of
//     its names a changed inode whose merge-visible signature (validity or
//     mode) changed — found through the baseline's reverse index. Refs is
//     maintained as baseline values plus an undo log, never rebuilt.
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
	"slices"

	"metaupdate/internal/ffs"
)

// incScratch is the incremental merge's reusable per-checker state. The
// mark slices are stamped with the checker's epoch, so nothing is cleared
// between checks.
type incScratch struct {
	fragMark []uint64  // frag idx patched this check
	patchOwn []ffs.Ino // patched owner (valid when fragMark matches)
	patchIdx []int32   // patched frag indices (frag - DataStart)

	inoMark []uint64 // pass-1 replay membership
	r1      []ffs.Ino
	dirMark []uint64 // pass-2 replay membership
	d2      []ffs.Ino
	p3Mark  []uint64
	p3      []ffs.Ino
	p4Mark  []uint64
	p4      []ffs.Ino

	// refUndo restores rep.Refs to the baseline's values at the start of
	// the next incremental merge (duplicates are harmless: every entry
	// restores the same baseline value). refsSynced says rep.Refs
	// currently holds baseline+undo state; a slow-path merge clears it.
	refUndo    []refUndo
	refsSynced bool
}

type refUndo struct {
	ino ffs.Ino
	n   int // baseline count; 0 = absent
}

func (s *incScratch) sized(nino, nfrag int) {
	if len(s.inoMark) != nino {
		s.inoMark = make([]uint64, nino)
		s.dirMark = make([]uint64, nino)
		s.p3Mark = make([]uint64, nino)
		s.p4Mark = make([]uint64, nino)
	}
	if len(s.fragMark) != nfrag {
		s.fragMark = make([]uint64, nfrag)
		s.patchOwn = make([]ffs.Ino, nfrag)
	}
	s.refsSynced = false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tryIncMerge attempts the spliced merge of img into dc.rep. It returns
// false — leaving dc.rep untouched beyond Refs bookkeeping — when the
// baseline or delta is outside the fast path's reach; the caller then
// runs the full epoch merge.
func (dc *DeltaChecker) tryIncMerge(img DeltaImage, dirty []int64) bool {
	art := &dc.bl.art
	sb := &dc.bl.sb
	if !art.conflictFree || !art.rootOK {
		return false
	}
	if len(dc.dirtyInos)*8 > int(sb.NInodes) {
		return false // blast radius too wide; the full merge is cheaper
	}
	root := dc.inodeRec(ffs.RootIno)
	if !root.alloc || !root.ok || !root.ip.IsDir() {
		return false // full merge early-returns; splicing doesn't apply
	}
	inc := &dc.inc
	epoch := dc.epoch

	slices.Sort(dc.dirtyInos)
	slices.Sort(dc.dirtyDirs)

	// ---- Pass 1: ownership patches ----
	// Mark every fragment referenced by a changed inode's old or new
	// claims; seed each with its surviving baseline owner.
	inc.patchIdx = inc.patchIdx[:0]
	mark := func(r *inodeRec) {
		for i := range r.steps {
			st := &r.steps[i]
			if !st.claim() {
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				idx := f - sb.DataStart
				if inc.fragMark[idx] == epoch {
					continue
				}
				inc.fragMark[idx] = epoch
				inc.patchIdx = append(inc.patchIdx, idx)
				if u := art.ownBase[idx]; u != 0 && dc.inoStamp[u] != epoch {
					inc.patchOwn[idx] = u // unchanged claimant keeps its claim
				} else {
					inc.patchOwn[idx] = 0
				}
			}
		}
	}
	for _, c := range dc.dirtyInos {
		if old := &dc.bl.st.inodes[c]; old.alloc {
			mark(old)
		}
		if fresh := &dc.freshIno[c]; fresh.alloc {
			mark(fresh)
		}
	}
	// First (lowest-inode) claimant wins, exactly like ascending merge
	// order: dirtyInos is sorted, so the min-update settles each patched
	// fragment's winner.
	for _, c := range dc.dirtyInos {
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
	inc.r1 = inc.r1[:0]
	for _, c := range dc.dirtyInos {
		inc.inoMark[c] = epoch
		inc.r1 = append(inc.r1, c)
	}
	for _, idx := range inc.patchIdx {
		u := art.ownBase[idx]
		if u != 0 && dc.inoStamp[u] != epoch && inc.patchOwn[idx] != u && inc.inoMark[u] != epoch {
			inc.inoMark[u] = epoch
			inc.r1 = append(inc.r1, u)
		}
	}
	slices.Sort(inc.r1)

	// ---- Refs: restore baseline values, then apply this delta ----
	rep := &dc.rep
	rep.Findings = rep.Findings[:0]
	if inc.refsSynced {
		for _, u := range inc.refUndo {
			if u.n == 0 {
				delete(rep.Refs, u.ino)
			} else {
				rep.Refs[u.ino] = u.n
			}
		}
	} else {
		if rep.Refs == nil {
			rep.Refs = make(map[ffs.Ino]int, len(art.rep.Refs))
		} else {
			clear(rep.Refs)
		}
		for k, v := range art.rep.Refs {
			rep.Refs[k] = v
		}
		inc.refsSynced = true
	}
	inc.refUndo = inc.refUndo[:0]

	// ---- Pass 1 emission and counters ----
	alloc := art.rep.AllocatedInodes
	frags := art.rep.ReferencedFrags
	for _, c := range dc.dirtyInos {
		alloc += b2i(dc.freshIno[c].alloc) - b2i(dc.bl.st.inodes[c].alloc)
	}
	segs := art.segs[0]
	si := 0
	for _, ino := range inc.r1 {
		for si < len(segs) && segs[si].ino < ino {
			rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
			si++
		}
		if si < len(segs) && segs[si].ino == ino {
			si++ // superseded by the replay below
		}
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
				if inc.fragMark[idx] == epoch {
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
	for ; si < len(segs); si++ {
		rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
	}
	rep.AllocatedInodes = alloc
	rep.ReferencedFrags = frags

	// ---- Pass 2: affected directories ----
	inc.d2 = inc.d2[:0]
	addD2 := func(d ffs.Ino) {
		if inc.dirMark[d] != epoch {
			inc.dirMark[d] = epoch
			inc.d2 = append(inc.d2, d)
		}
	}
	for _, d := range dc.dirtyDirs {
		addD2(d)
	}
	for _, c := range dc.dirtyInos {
		old, fresh := &dc.bl.st.inodes[c], &dc.freshIno[c]
		oldV, newV := old.alloc && old.ok, fresh.alloc && fresh.ok
		if oldV != newV || old.ip.Mode != fresh.ip.Mode {
			// The inode looks different to directory entries naming it.
			for _, d := range art.refDirs[c] {
				addD2(d)
			}
		}
		if (oldV && old.ip.IsDir()) || (newV && fresh.ip.IsDir()) {
			addD2(c)
		}
	}
	slices.Sort(inc.d2)

	// Withdraw the affected directories' baseline Refs contributions (the
	// replay below re-adds the current ones) and note every touched
	// target for the pass-3 sweep and the next check's undo.
	inc.p3 = inc.p3[:0]
	noteRef := func(t ffs.Ino) {
		inc.refUndo = append(inc.refUndo, refUndo{t, art.rep.Refs[t]})
		if uint32(t) >= 2 && uint32(t) < sb.NInodes && inc.p3Mark[t] != epoch {
			inc.p3Mark[t] = epoch
			inc.p3 = append(inc.p3, t)
		}
	}
	for _, d := range inc.d2 {
		if old := &dc.bl.st.inodes[d]; old.alloc && old.ok && old.ip.IsDir() {
			dr := &dc.bl.st.dirs[d]
			for i := range dr.steps {
				if st := &dr.steps[i]; !st.bad {
					noteRef(st.ino)
					if n := rep.Refs[st.ino] - 1; n == 0 {
						delete(rep.Refs, st.ino)
					} else {
						rep.Refs[st.ino] = n
					}
				}
			}
		}
		if r := dc.inodeRec(d); r.alloc && r.ok && r.ip.IsDir() {
			dr := dc.dirRec(d)
			for i := range dr.steps {
				if st := &dr.steps[i]; !st.bad {
					noteRef(st.ino)
				}
			}
		}
	}
	segs = art.segs[1]
	si = 0
	for _, d := range inc.d2 {
		for si < len(segs) && segs[si].ino < d {
			rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
			si++
		}
		if si < len(segs) && segs[si].ino == d {
			si++
		}
		if r := dc.inodeRec(d); r.alloc && r.ok && r.ip.IsDir() {
			mergeDir(sb, dc, d, dc.dirRec(d), rep)
		}
	}
	for ; si < len(segs); si++ {
		rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
	}

	// ---- Pass 3: changed records or moved reference counts ----
	for _, c := range dc.dirtyInos {
		if inc.p3Mark[c] != epoch {
			inc.p3Mark[c] = epoch
			inc.p3 = append(inc.p3, c)
		}
	}
	// Keep only inos whose count actually moved or record changed.
	keep := inc.p3[:0]
	for _, t := range inc.p3 {
		if dc.inoStamp[t] == epoch || rep.Refs[t] != art.rep.Refs[t] {
			keep = append(keep, t)
		}
	}
	inc.p3 = keep
	slices.Sort(inc.p3)
	segs = art.segs[2]
	si = 0
	for _, ino := range inc.p3 {
		for si < len(segs) && segs[si].ino < ino {
			rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
			si++
		}
		if si < len(segs) && segs[si].ino == ino {
			si++
		}
		if r := dc.inodeRec(ino); r.alloc && r.ok {
			mergeLink(&r.ip, ino, rep.Refs[ino], rep)
		}
	}
	for ; si < len(segs); si++ {
		rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
	}

	// ---- Pass 4: inode bitmap ----
	ibmOff := int64(sb.IBmapStart) * ffs.FragSize
	ibmLen := (int64(sb.NInodes) + 7) / 8
	inc.p4 = inc.p4[:0]
	for _, c := range dc.dirtyInos {
		inc.p4Mark[c] = epoch
		inc.p4 = append(inc.p4, c)
	}
	base := dc.bl.base
	for _, s := range dirty {
		lo, hi := s*sectorSize, (s+1)*sectorSize
		if lo < ibmOff {
			lo = ibmOff
		}
		if hi > ibmOff+ibmLen {
			hi = ibmOff + ibmLen
		}
		if lo >= hi {
			continue
		}
		nb, db := base.Range(lo, hi-lo), img.Range(lo, hi-lo)
		for i := 0; i < len(nb); {
			// The delta usually flips a handful of bits in a 512-byte
			// sector; skip equal stretches a word at a time.
			if len(nb)-i >= 8 && binary.LittleEndian.Uint64(nb[i:]) == binary.LittleEndian.Uint64(db[i:]) {
				i += 8
				continue
			}
			x := nb[i] ^ db[i]
			for x != 0 {
				bit := x&(x-1) ^ x
				ino := ffs.Ino(((lo - ibmOff) + int64(i)) * 8)
				for b := bit; b > 1; b >>= 1 {
					ino++
				}
				if uint32(ino) >= 2 && uint32(ino) < sb.NInodes && inc.p4Mark[ino] != epoch {
					inc.p4Mark[ino] = epoch
					inc.p4 = append(inc.p4, ino)
				}
				x &^= bit
			}
			i++
		}
	}
	slices.Sort(inc.p4)
	ibm := img.Range(ibmOff, ibmLen)
	segs = art.segs[3]
	si = 0
	for _, ino := range inc.p4 {
		for si < len(segs) && segs[si].ino < ino {
			rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
			si++
		}
		if si < len(segs) && segs[si].ino == ino {
			si++
		}
		r := dc.inodeRec(ino)
		mergeIbm(r.alloc && r.ok, ibm[ino/8]&(1<<(uint(ino)%8)) != 0, ino, rep)
	}
	for ; si < len(segs); si++ {
		rep.Findings = append(rep.Findings, art.rep.Findings[segs[si].start:segs[si].end]...)
	}

	// ---- Pass 4: fragment aggregates by contribution delta ----
	fbmOff := int64(sb.FBmapStart) * ffs.FragSize
	fbmLen := (int64(sb.TotalFrags) + 7) / 8
	baseFbm := base.Range(fbmOff, fbmLen)
	deltaFbm := img.Range(fbmOff, fbmLen)
	fbit := func(bm []byte, f int32) bool { return bm[f/8]&(1<<(uint(f)%8)) != 0 }
	stale, leaks := art.aggStale, art.aggLeaks
	for _, idx := range inc.patchIdx {
		f := idx + sb.DataStart
		oldOwned, newOwned := art.ownBase[idx] != 0, inc.patchOwn[idx] != 0
		oldSet, newSet := fbit(baseFbm, f), fbit(deltaFbm, f)
		stale += b2i(newOwned && !newSet) - b2i(oldOwned && !oldSet)
		leaks += b2i(!newOwned && newSet) - b2i(!oldOwned && oldSet)
	}
	for _, s := range dirty {
		lo, hi := s*sectorSize, (s+1)*sectorSize
		if lo < fbmOff {
			lo = fbmOff
		}
		if hi > fbmOff+fbmLen {
			hi = fbmOff + fbmLen
		}
		for off := lo; off < hi; {
			i := off - fbmOff
			if hi-off >= 8 && binary.LittleEndian.Uint64(baseFbm[i:]) == binary.LittleEndian.Uint64(deltaFbm[i:]) {
				off += 8
				continue
			}
			x := baseFbm[i] ^ deltaFbm[i]
			for x != 0 {
				bit := x&(x-1) ^ x
				f := int32(i * 8)
				for b := bit; b > 1; b >>= 1 {
					f++
				}
				if f >= sb.DataStart && f < sb.TotalFrags && inc.fragMark[f-sb.DataStart] != epoch {
					owned := art.ownBase[f-sb.DataStart] != 0
					newSet := fbit(deltaFbm, f)
					stale += b2i(owned && !newSet) - b2i(owned && newSet)
					leaks += b2i(!owned && newSet) - b2i(!owned && !newSet)
				}
				x &^= bit
			}
			off++
		}
	}
	mergeFragAgg(stale, leaks, rep)
	return true
}
