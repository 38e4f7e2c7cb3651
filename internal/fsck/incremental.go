package fsck

// Incremental checking. A Baseline is a fully derived record set for one
// verified base image plus a reverse index from sectors to the records
// derived from them. A DeltaChecker replays a DeltaImage (base + dirty
// sectors) by re-deriving exactly the records whose recorded dependency
// sectors intersect the delta and splicing the baseline records for the
// rest, then running the same deterministic merge as CheckImage — so the
// report is identical, field for field, to a full check of the
// materialized delta.
//
// Soundness: a cached record is a pure function of the sectors in its
// recorded deps (deriveInode reads the inode slot and its indirect blocks;
// deriveDir reads the directory's direct data blocks — all recorded). If
// none of those sectors is dirty, the delta serves them byte-identical to
// the base, so re-derivation would reproduce the cached record. Everything
// the merge reads beyond records — the bitmaps, through img.Range — is
// read live from the delta each time. The superblock is the one input read
// outside a record (geometry for every derivation); a delta that dirties
// its sector falls back to a full check.
//
// The same argument moves a Baseline itself: Advance re-derives the
// records a committed change reaches and re-runs the merge over them, so a
// crash explorer whose committed image rolls forward a few sectors at a
// time pays per change, not per image.

import (
	"bytes"
	"slices"

	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
)

// Baseline is the reusable derived state of one base image. It is
// immutable between Advances, and safe for concurrent use by multiple
// DeltaCheckers while it is; Advance itself needs the only reference.
type Baseline struct {
	ok bool // superblock decoded; if false every Check falls back to full
	sb ffs.Superblock
	st *checkState
	// rev maps a sector to the records derived from it; values encode
	// ino<<1 | isDirParse. Indexed directly by sector number — Check runs
	// once per dirty sector, and a map lookup there is measurable. Every
	// inode record depends on its own table sector, so the index names
	// the inodes a dirty inode-table sector holds too.
	rev [][]uint32
	// base is the image the records were derived from; the incremental
	// merge diffs delta bitmap sectors against it.
	base Image
	// art is the baseline's own merge result, recorded for splicing.
	art mergeArtifacts

	// Advance's scratch: the inodes and directory parses one advance
	// re-derives.
	staleInos, staleDirs stampSet[ffs.Ino]
}

// stampSet is a set of small integers that empties in O(1) and lists its
// members in insertion order: v is a member when mark[v] equals the
// current generation. reset starts a new generation, and on wrap clears
// the marks, so no mark from an old generation reads as current.
type stampSet[T ~int32 | ~uint32] struct {
	mark []uint32
	gen  uint32
	list []T
}

// sized gives the set room for values below n, emptied when it is
// reallocated.
func (s *stampSet[T]) sized(n int) {
	if len(s.mark) != n {
		s.mark, s.gen = make([]uint32, n), 0
		s.reset()
	}
}

// reset empties the set.
func (s *stampSet[T]) reset() {
	s.list = s.list[:0]
	s.gen++
	if s.gen == 0 {
		clear(s.mark)
		s.gen = 1
	}
}

func (s *stampSet[T]) has(v T) bool { return s.mark[v] == s.gen }

// add inserts v, reporting whether it was new.
func (s *stampSet[T]) add(v T) bool {
	if s.mark[v] == s.gen {
		return false
	}
	s.mark[v] = s.gen
	s.list = append(s.list, v)
	return true
}

// NewBaseline derives every record of base, serially: the crashmc pool,
// one Baseline per worker, is the checker's only parallelism.
//
// workers has no effect. It stays only while bench's fsck probe passes it.
func NewBaseline(base Image, workers int) *Baseline {
	bl := &Baseline{base: base}
	bl.derive()
	return bl
}

// derive is the full derivation of bl.base: every record, the merge
// artifacts and the reverse index, written into bl's storage wherever its
// geometry still fits. NewBaseline runs it on fresh storage, Advance when
// a change is outside what it can re-derive piecemeal.
func (bl *Baseline) derive() {
	bl.ok = decodeSB(bl.base, &bl.sb) == nil
	if !bl.ok {
		return // checks against this baseline run full
	}
	if bl.st == nil || len(bl.st.inodes) != int(bl.sb.NInodes) {
		bl.st = newCheckState(bl.sb)
	}
	bl.staleInos.sized(int(bl.sb.NInodes))
	bl.staleDirs.sized(int(bl.sb.NInodes))
	bl.st.sb = bl.sb
	bl.st.deriveAll(bl.base)

	nsec := int(int64(bl.sb.TotalFrags) * ffs.FragSize / disk.SectorSize)
	if len(bl.rev) != nsec {
		bl.rev = make([][]uint32, nsec)
	}
	for s := range bl.rev {
		bl.rev[s] = bl.rev[s][:0]
	}
	for ino := ffs.Ino(2); uint32(ino) < bl.sb.NInodes; ino++ {
		r := &bl.st.inodes[ino]
		bl.index(uint32(ino)<<1, r.deps)
		if r.alloc && r.ok && r.ip.IsDir() {
			bl.index(uint32(ino)<<1|1, bl.st.dirs[ino].deps)
		}
	}
	bl.merge()
}

// merge runs the baseline's own merge, recording into bl.art the artifacts
// the incremental merge splices against. Every artifact is rebuilt in its
// existing storage.
func (bl *Baseline) merge() {
	a := &bl.art
	a.rep.reset()
	for p := range a.segs {
		a.segs[p] = a.segs[p][:0]
	}
	a.success = resized(a.success, int(bl.sb.NInodes))
	a.ownBase = resized(a.ownBase, int(bl.sb.TotalFrags-bl.sb.DataStart))
	a.aggStale, a.aggLeaks, a.rootOK = 0, 0, false
	mergeReport(&bl.sb, bl.base, bl.st, &a.rep, &bl.st.own, a)

	if a.refDirs == nil {
		a.refDirs = make(map[ffs.Ino][]ffs.Ino)
	}
	for t, ds := range a.refDirs {
		a.refDirs[t] = ds[:0]
	}
	for ino := ffs.Ino(2); uint32(ino) < bl.sb.NInodes; ino++ {
		r := &bl.st.inodes[ino]
		if !(r.alloc && r.ok && r.ip.IsDir()) {
			continue
		}
		dr := &bl.st.dirs[ino]
		for i := range dr.steps {
			if st := &dr.steps[i]; !st.bad {
				a.refDirs[st.ino] = append(a.refDirs[st.ino], ino)
			}
		}
	}
	for t, ds := range a.refDirs {
		if len(ds) == 0 {
			delete(a.refDirs, t) // a target no entry names any more
		}
	}
}

// resized returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// index adds v to the reverse index under every sector of deps.
func (bl *Baseline) index(v uint32, deps []secRange) {
	for _, sr := range deps {
		for s := max(sr.lo, 0); s < min(sr.hi, int64(len(bl.rev))); s++ {
			bl.rev[s] = append(bl.rev[s], v)
		}
	}
}

// unindex removes what index(v, deps) added: one entry of v per sector of
// deps, so a record that names a sector twice keeps its multiplicity.
func (bl *Baseline) unindex(v uint32, deps []secRange) {
	for _, sr := range deps {
		for s := max(sr.lo, 0); s < min(sr.hi, int64(len(bl.rev))); s++ {
			l := bl.rev[s]
			if i := slices.Index(l, v); i >= 0 {
				l[i] = l[len(l)-1]
				bl.rev[s] = l[:len(l)-1]
			}
		}
	}
}

// Advance moves bl from the image it was derived from to the same image
// after the listed sectors changed. The bytes are read where bl already
// reads them: the Image passed to NewBaseline must now hold the new
// contents (crashmc's workers write completed requests into the slice
// their Baseline aliases). dirty may list a sector more than once.
//
// Only the records stale after the change are re-derived — those the
// reverse index maps from a dirty sector, which includes every inode
// whose slot lies in a dirty inode-table sector — plus the parse of every
// re-derived inode that is a valid directory. Their reverse-index entries
// move from their old dependency sectors to their new ones, and the merge
// artifacts are recomputed in place. Where a DeltaChecker would fall back
// to a full check (a dirty superblock sector, or a baseline whose
// superblock did not decode), Advance falls back to the full derivation
// NewBaseline runs, into the same storage, and reports true.
//
// A DeltaChecker bound to bl must be Rebound before its next Check.
func (bl *Baseline) Advance(dirty []int64) (full bool) {
	if !bl.ok || slices.Contains(dirty, 0) {
		bl.derive()
		return true
	}
	bl.staleInos.reset()
	bl.staleDirs.reset()
	for _, s := range dirty {
		if s < 0 || s >= int64(len(bl.rev)) {
			continue // past the filesystem: no record depends on it
		}
		for _, v := range bl.rev[s] {
			if v&1 == 0 {
				bl.staleInos.add(ffs.Ino(v >> 1))
			} else {
				bl.staleDirs.add(ffs.Ino(v >> 1))
			}
		}
	}

	// Withdraw the stale records from the index while their old deps are
	// at hand. A stale inode that was a valid directory takes its parse
	// with it: the parse starts from the inode's block pointers. Every
	// listed directory is then one the index holds a parse of.
	for _, ino := range bl.staleInos.list {
		r := &bl.st.inodes[ino]
		bl.unindex(uint32(ino)<<1, r.deps)
		if r.alloc && r.ok && r.ip.IsDir() {
			bl.staleDirs.add(ino)
		}
	}
	for _, ino := range bl.staleDirs.list {
		bl.unindex(uint32(ino)<<1|1, bl.st.dirs[ino].deps)
	}

	d := deriver{img: bl.base, sb: &bl.sb}
	for _, ino := range bl.staleInos.list {
		r := &bl.st.inodes[ino]
		d.deriveInode(ino, r)
		bl.index(uint32(ino)<<1, r.deps)
		if r.alloc && r.ok && r.ip.IsDir() {
			bl.staleDirs.add(ino) // (still or newly) a directory: re-parse it
		}
	}
	for _, ino := range bl.staleDirs.list {
		// A directory that stopped being one keeps its old parse, which
		// nothing reads: the merge asks only valid directories for theirs.
		if r := &bl.st.inodes[ino]; r.alloc && r.ok && r.ip.IsDir() {
			d.deriveDir(ino, &r.ip, &bl.st.dirs[ino])
			bl.index(uint32(ino)<<1|1, bl.st.dirs[ino].deps)
		}
	}
	bl.merge()
	return false
}

// DeltaCheckerStats counts the work a DeltaChecker has done; the gap
// between Checks×NInodes and InodesRederived is the incremental win.
type DeltaCheckerStats struct {
	Checks          int64
	FullFallbacks   int64
	InodesRederived int64
	DirsReparsed    int64
	// SplicedMerges counts checks served by the incremental merge
	// (incmerge.go) rather than the full epoch merge.
	SplicedMerges int64
}

// DeltaChecker checks DeltaImages against one Baseline, reusing all
// scratch state across calls (stamped sets and an epoch-tagged ownership
// table, so nothing is cleared per check). Not safe for concurrent use;
// crashmc gives each pool worker its own.
type DeltaChecker struct {
	bl *Baseline
	d  deriver

	freshIno []inodeRec
	freshDir []dirRec
	own      ownTable
	rep      Report
	// The inodes re-derived into freshIno and the directories re-parsed
	// into freshDir this check.
	dirtyInos, dirtyDirs stampSet[ffs.Ino]
	inc                  incScratch

	Stats DeltaCheckerStats
}

// NewDeltaChecker returns a checker bound to bl.
func NewDeltaChecker(bl *Baseline) *DeltaChecker {
	dc := &DeltaChecker{}
	dc.Rebind(bl)
	return dc
}

// Rebind points dc at a new baseline, or at its baseline after an Advance,
// keeping its scratch when the geometry matches (the common case:
// successive committed images of one exploration share a superblock).
func (dc *DeltaChecker) Rebind(bl *Baseline) {
	dc.bl = bl
	if !bl.ok {
		return
	}
	n := int(bl.sb.NInodes)
	if len(dc.freshIno) != n {
		dc.freshIno = make([]inodeRec, n)
		dc.freshDir = make([]dirRec, n)
	}
	dc.dirtyInos.sized(n)
	dc.dirtyDirs.sized(n)
	dc.inc.sized(n, int(bl.sb.TotalFrags-bl.sb.DataStart))
	dc.d.sb = &dc.bl.sb
}

// SkipDetails controls whether merge-time findings carry formatted Detail
// strings (the default). Callers that only triage reports by Kind — the
// crash explorer keeps a handful of thousands — can skip the formatting,
// which otherwise dominates the per-check cost, and re-check the keepers
// with a full checker.
func (dc *DeltaChecker) SkipDetails(skip bool) {
	dc.rep.noDetail = skip
}

// recProvider: splice fresh records over the baseline.

func (dc *DeltaChecker) inodeRec(ino ffs.Ino) *inodeRec {
	if dc.dirtyInos.has(ino) {
		return &dc.freshIno[ino]
	}
	return &dc.bl.st.inodes[ino]
}

func (dc *DeltaChecker) dirRec(ino ffs.Ino) *dirRec {
	if dc.dirtyDirs.has(ino) {
		return &dc.freshDir[ino]
	}
	return &dc.bl.st.dirs[ino]
}

// Check verifies img incrementally. img.Base() must be byte-identical to
// the image the bound Baseline was built from, or last advanced to. The returned Report aliases
// dc's reused scratch: it is valid until the next Check call.
func (dc *DeltaChecker) Check(img DeltaImage) *Report {
	dc.Stats.Checks++
	if !dc.bl.ok {
		dc.Stats.FullFallbacks++
		return CheckImage(img)
	}
	dirty := img.DirtySectors()
	for _, s := range dirty {
		if s == 0 {
			// The superblock feeds every derivation's geometry; a delta
			// touching it cannot splice cached records soundly.
			dc.Stats.FullFallbacks++
			return CheckImage(img)
		}
	}

	// Invalidate records whose dependency sectors intersect the delta.
	// Inode-table sectors get a finer test: a 512-byte sector holds 4 inode
	// slabs, and DirtySectors over-approximates, so diffing each slab
	// against the base (128-byte compare) is far cheaper than re-deriving
	// an unchanged inode (decode + claim walk). An inode whose slab is
	// clean but whose indirect block changed is still caught — the
	// indirect sector is its own recorded dep and takes the rev path.
	dc.dirtyInos.reset()
	dc.dirtyDirs.reset()
	itLo := int64(dc.bl.sb.InodeStart) * ffs.FragSize
	itHi := int64(dc.bl.sb.IBmapStart) * ffs.FragSize
	for _, s := range dirty {
		if b := s * disk.SectorSize; b >= itLo && b < itHi {
			cur := img.Range(b, disk.SectorSize)
			old := dc.bl.base.Range(b, disk.SectorSize)
			if bytes.Equal(cur, old) {
				continue
			}
			rel := b - itLo
			ino0 := ffs.Ino(rel/ffs.BlockSize*ffs.InodesPerBlock + rel%ffs.BlockSize/ffs.InodeSize)
			for k := 0; k < disk.SectorSize/ffs.InodeSize; k++ {
				ino := ino0 + ffs.Ino(k)
				if ino < 2 || uint32(ino) >= dc.bl.sb.NInodes {
					continue
				}
				if bytes.Equal(cur[k*ffs.InodeSize:(k+1)*ffs.InodeSize], old[k*ffs.InodeSize:(k+1)*ffs.InodeSize]) {
					continue
				}
				dc.dirtyInos.add(ino)
			}
			continue
		}
		if s < 0 || s >= int64(len(dc.bl.rev)) {
			continue // past the filesystem: no record depends on it
		}
		for _, v := range dc.bl.rev[s] {
			ino := ffs.Ino(v >> 1)
			if v&1 == 0 {
				dc.dirtyInos.add(ino)
			} else {
				dc.dirtyDirs.add(ino)
			}
		}
	}

	// Re-derive invalidated inodes against the delta; a re-derived inode
	// that is (still or newly) a valid directory needs its parse refreshed
	// too, since the parse starts from the inode's block pointers.
	dc.d.img = img
	for _, ino := range dc.dirtyInos.list {
		r := &dc.freshIno[ino]
		dc.d.deriveInode(ino, r)
		dc.Stats.InodesRederived++
		if r.alloc && r.ok && r.ip.IsDir() {
			dc.dirtyDirs.add(ino)
		}
	}
	for _, ino := range dc.dirtyDirs.list {
		r := dc.inodeRec(ino)
		if r.alloc && r.ok && r.ip.IsDir() {
			dc.d.deriveDir(ino, &r.ip, &dc.freshDir[ino])
			dc.Stats.DirsReparsed++
		}
		// Otherwise the slot is stamped but never consulted: the merge
		// only asks for directories the spliced inode view calls valid.
	}

	if dc.tryIncMerge(img, dirty) {
		dc.Stats.SplicedMerges++
		return &dc.rep
	}
	dc.rep.reset()
	mergeReport(&dc.bl.sb, img, dc, &dc.rep, &dc.own, nil)
	return &dc.rep
}

// reset empties r for a merge, which sizes Refs itself.
func (r *Report) reset() {
	r.Findings = r.Findings[:0]
	r.AllocatedInodes = 0
	r.ReferencedFrags = 0
}
