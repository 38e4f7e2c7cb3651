package fsck

// The checker is structured as pure per-object derivations feeding a
// deterministic global merge — the decomposition behind the one-shot check,
// the incremental checker (incremental.go) and Repair, which consumes the
// same records instead of walking the image a second way. The deriver in
// this file is the only code in the package that knows the on-disk layout:
// walkFile is the one block-map walk, dirCursor the one directory-entry
// decoder.
//
//   - deriveInode produces, for one inode, an ordered script of steps: the
//     findings its block-map walk emits plus the fragment runs it claims.
//     The script depends only on bytes the walk itself reads (the inode
//     slot, its indirect blocks), which deriveInode records as sector
//     ranges in the record's deps.
//
//   - deriveDir produces, for one directory, the parsed entry list (with
//     pre-rendered bad-format findings) and the "."/".." summary. It
//     depends only on the inode's direct data blocks, also recorded.
//
//   - mergeReport replays the scripts in ascending-inode order against a
//     shared fragment-ownership table, emitting cross-links, reference
//     counts, link-count results, and bitmap reconciliation exactly as the
//     historical single-pass checker did. Merge order is fixed, so the
//     report is byte-deterministic regardless of how (or when) the records
//     were derived.
//
// Derivations are pure functions of the image bytes they read, which is
// what makes records cacheable across delta images (see incremental.go).

import (
	"encoding/binary"
	"fmt"
	"sync"

	"metaupdate/internal/ffs"
)

// Step kinds below zero are fragment-run claims; any other value is the Kind
// of a pre-rendered finding.
const (
	claimData int32 = -1 // a run of file data
	claimMap  int32 = -2 // an indirect block
)

// istep is one step of an inode's replayable walk script. bi is the file
// block the step stands for — for a map block, the first block it maps — so
// a consumer that stops trusting the map at some step (Repair) knows where
// the file ends. A Baseline holds one istep per block of every file: keep
// it at 32 bytes.
type istep struct {
	kind   int32 // claimData, claimMap, or the Finding's Kind
	bi     int32
	start  int32
	n      int32
	detail string
}

func (s *istep) claim() bool { return s.kind < 0 }

// secRange is a half-open sector range [lo, hi).
type secRange struct{ lo, hi int64 }

// inodeRec is the cached derivation for one inode slot.
type inodeRec struct {
	alloc bool // inode is allocated
	ok    bool // allocated with a valid mode (member of the inode view)
	ip    ffs.Inode
	steps []istep
	// deps are the sectors the derivation read: the inode's own table
	// sector plus any indirect blocks. (Not the claimed data fragments —
	// the walk never reads those.)
	deps []secRange
}

func (r *inodeRec) addf(k Kind, bi int, format string, args ...interface{}) {
	r.steps = append(r.steps, istep{kind: int32(k), bi: int32(bi), detail: fmt.Sprintf(format, args...)})
}

func (r *inodeRec) dep(off, n int64) {
	r.deps = append(r.deps, secRange{off / sectorSize, (off + n + sectorSize - 1) / sectorSize})
}

// dstep is one parsed directory entry (or a pre-rendered bad-format
// finding terminating a chunk). Entry names live in the owning dirRec's
// names arena — a string field here would cost one heap allocation per
// entry per re-parse, which the incremental checker's steady state can't
// afford.
type dstep struct {
	bad              bool
	detail           string
	ino              ffs.Ino
	nameOff, nameLen int32
	ftype            byte
}

// dirRec is the cached parse for one directory's data.
type dirRec struct {
	empty             bool // Size == 0: nothing to check
	sawDot, sawDotdot bool
	steps             []dstep
	names             []byte // arena backing the steps' entry names
	deps              []secRange
}

func (r *dirRec) name(st *dstep) []byte {
	return r.names[st.nameOff : st.nameOff+st.nameLen]
}

func (r *dirRec) dep(off, n int64) {
	r.deps = append(r.deps, secRange{off / sectorSize, (off + n + sectorSize - 1) / sectorSize})
}

// deriver derives records from one image.
type deriver struct {
	img Image
	sb  *ffs.Superblock
}

// inodeOff returns the image offset of ino's slot in the inode table.
func (d *deriver) inodeOff(ino ffs.Ino) int64 {
	frag, off := d.sb.InodeFrag(ino)
	return int64(frag)*ffs.FragSize + int64(off)
}

// readInode decodes ino's slot.
func (d *deriver) readInode(ino ffs.Ino) ffs.Inode {
	return ffs.DecodeInode(d.img.Range(d.inodeOff(ino), ffs.InodeSize))
}

// deriveInode computes ino's walk script into r, resetting it first.
func (d *deriver) deriveInode(ino ffs.Ino, r *inodeRec) {
	r.steps = r.steps[:0]
	r.deps = r.deps[:0]
	ioff := d.inodeOff(ino)
	r.dep(ioff, ffs.InodeSize)
	ffs.DecodeInodeInto(&r.ip, d.img.Range(ioff, ffs.InodeSize))
	r.alloc = r.ip.Allocated()
	r.ok = false
	if !r.alloc {
		return
	}
	if r.ip.Mode != ffs.ModeFile && r.ip.Mode != ffs.ModeDir {
		r.addf(TypeMismatch, 0, "bad mode %#x", r.ip.Mode)
		return
	}
	r.ok = true
	d.walkFile(r)
}

// claim appends a claim step for [start, start+n), or a BadPointer finding
// if the run leaves the data region. Cross-links are found when the steps
// are replayed (they need global state).
func (d *deriver) claim(r *inodeRec, kind int32, bi int, start int32, n int) bool {
	if start < d.sb.DataStart || start+int32(n) > d.sb.TotalFrags {
		r.addf(BadPointer, bi, "fragment run [%d,%d) outside data region", start, start+int32(n))
		return false
	}
	r.steps = append(r.steps, istep{kind: kind, bi: int32(bi), start: start, n: int32(n)})
	return true
}

// runFrags returns the length in fragments of file block bi of nblocks:
// only a file's last block may be partial.
func (r *inodeRec) runFrags(bi, nblocks int) int {
	if bi == nblocks-1 {
		if rem := int(r.ip.Size) % ffs.BlockSize; rem != 0 {
			return (rem + ffs.FragSize - 1) / ffs.FragSize
		}
	}
	return ffs.BlockFrags
}

// walkFile is the one walk of a file's block map: the blocks r.ip.Size
// implies, in file order, each map block just before the blocks it maps.
func (d *deriver) walkFile(r *inodeRec) {
	ip := &r.ip
	nblocks := (int(ip.Size) + ffs.BlockSize - 1) / ffs.BlockSize
	bi := 0
	for ; bi < nblocks && bi < ffs.NDirect; bi++ {
		if ip.Direct[bi] == 0 {
			r.addf(ShortFile, bi, "size implies direct block %d but it is unset", bi)
			continue
		}
		d.claim(r, claimData, bi, ip.Direct[bi], r.runFrags(bi, nblocks))
	}
	if bi < nblocks && ip.Indir == 0 {
		r.addf(ShortFile, bi, "size %d implies an indirect block but none is set", ip.Size)
		return
	}
	if ip.Indir != 0 {
		d.walkMap(r, ip.Indir, 1, false, ffs.NDirect, nblocks)
	}
	bi = ffs.NDirect + ffs.PtrsPerBlock
	if bi < nblocks && ip.Dindir == 0 {
		r.addf(ShortFile, bi, "size %d implies a double-indirect block but none is set", ip.Size)
		return
	}
	if ip.Dindir != 0 {
		d.walkMap(r, ip.Dindir, 2, false, bi, nblocks)
	}
}

// walkMap claims the map block at ptr, which maps the file from block bi
// on, and walks what its slots name: data blocks at depth 1, depth-1 map
// blocks (nested) at depth 2. It returns the file block behind its last
// slot walked.
func (d *deriver) walkMap(r *inodeRec, ptr int32, depth int, nested bool, bi, nblocks int) int {
	span := 1 // file blocks behind each slot
	if depth == 2 {
		span = ffs.PtrsPerBlock
	}
	if !d.claim(r, claimMap, bi, ptr, ffs.BlockFrags) {
		return bi + span*ffs.PtrsPerBlock
	}
	off := int64(ptr) * ffs.FragSize
	r.dep(off, ffs.BlockSize)
	data := d.img.Range(off, ffs.BlockSize)
	for i := 0; i < ffs.PtrsPerBlock && bi < nblocks; i++ {
		p := int32(binary.LittleEndian.Uint32(data[i*4:]))
		switch {
		case p == 0 && depth == 2:
			r.addf(ShortFile, bi, "hole at dindirect slot %d", i)
			bi += span
		case p == 0 && nested:
			r.addf(ShortFile, bi, "hole under dindirect")
			bi++
		case p == 0:
			r.addf(ShortFile, bi, "hole at indirect slot %d", i)
			bi++
		case depth == 1:
			d.claim(r, claimData, bi, p, r.runFrags(bi, nblocks))
			bi++
		default:
			bi = d.walkMap(r, p, 1, true, bi, nblocks)
			// The nested walk read through the image: views from scratch-
			// backed implementations do not survive many later Range calls.
			data = d.img.Range(off, ffs.BlockSize)
		}
	}
	return bi
}

// dirent is one step of a dirCursor: a live entry, or (bad) the malformed
// entry that makes the rest of its chunk unreadable.
type dirent struct {
	bad    bool
	ino    ffs.Ino
	reclen int
	ftype  byte
	name   []byte // a view of the image, valid as Image.Range's are
	off    int    // byte offset in the directory
	at     int64  // byte offset in the image
}

// dirCursor is the one decoder of directory entries, for the checker's
// parse (deriveDir), the namespace walk (WalkTree) and Repair, which edits
// at the image offsets it reports. It reads a directory in place, a chunk
// (= one sector) at a time, over the leading run of usable direct blocks —
// the walk of the inode has already reported any that are not. A value
// with no closure: deriveDir runs in the incremental checker's
// allocation-free steady state.
type dirCursor struct {
	img  Image
	ip   *ffs.Inode
	size int // directory bytes on those blocks, at most ip.Size
	off  int // offset of the next entry
}

// openDir starts a cursor over ip's directory data, recording the sectors
// it will read in r's deps when r is not nil.
func (d *deriver) openDir(ip *ffs.Inode, r *dirRec) dirCursor {
	c := dirCursor{img: d.img, ip: ip}
	nblocks := (int(ip.Size) + ffs.BlockSize - 1) / ffs.BlockSize
	for bi := 0; bi < nblocks && bi < ffs.NDirect; bi++ {
		ptr := ip.Direct[bi]
		if ptr == 0 || ptr < d.sb.DataStart || ptr >= d.sb.TotalFrags {
			break
		}
		n := ffs.BlockSize
		if rem := int(ip.Size) - bi*ffs.BlockSize; rem < n {
			n = (rem + ffs.FragSize - 1) / ffs.FragSize * ffs.FragSize
		}
		if r != nil {
			r.dep(int64(ptr)*ffs.FragSize, int64(n))
		}
		c.size += n
	}
	if int(ip.Size) < c.size {
		c.size = int(ip.Size)
	}
	return c
}

// at maps a directory offset to its image offset.
func (c *dirCursor) at(off int) int64 {
	return int64(c.ip.Direct[off/ffs.BlockSize])*ffs.FragSize + int64(off%ffs.BlockSize)
}

// next decodes the next live entry into e, or the malformed one that ends
// its chunk (e.bad; the walk resumes at the next chunk). It returns false
// at the end of the directory: only whole chunks are read.
func (c *dirCursor) next(e *dirent) bool {
	le := binary.LittleEndian
	for {
		in := c.off % ffs.DirChunk
		if in == 0 && c.off+ffs.DirChunk > c.size {
			return false
		}
		// One sector per step, not one held across steps: a consumer reads
		// other parts of the image between entries, and a view is only
		// promised to outlive a few later Range calls.
		chunkAt := c.at(c.off - in)
		chunk := c.img.Range(chunkAt, ffs.DirChunk)
		hdr := chunk[in:]
		var buf [8]byte
		if len(hdr) < 8 {
			// A chain of valid reclens can stop short of the chunk's end.
			// No entry fits there (the test below fails whatever reclen
			// says), but the reclen reported for it is read from a header
			// that runs on into the bytes that follow.
			if c.off+8 > c.size {
				return false
			}
			n := copy(buf[:], hdr)
			copy(buf[n:], c.img.Range(c.at(c.off+n), int64(8-n)))
			hdr = buf[:]
		}
		*e = dirent{ino: ffs.Ino(le.Uint32(hdr)), reclen: int(le.Uint16(hdr[4:])), ftype: hdr[7],
			off: c.off, at: chunkAt + int64(in)}
		namelen := int(hdr[6])
		if e.reclen < 8 || in+e.reclen > ffs.DirChunk || (e.ino != 0 && 8+namelen > e.reclen) {
			e.bad = true
			c.off += ffs.DirChunk - in
			return true
		}
		c.off += e.reclen
		if e.ino != 0 {
			e.name = chunk[in+8 : in+8+namelen]
			return true
		}
	}
}

// deriveDir parses ino's directory data (per ip) into r, resetting it
// first. The target-dependent checks (dangling entries, type mismatches)
// happen at merge time because they consult other inodes' state.
func (d *deriver) deriveDir(ino ffs.Ino, ip *ffs.Inode, r *dirRec) {
	r.steps = r.steps[:0]
	r.names = r.names[:0]
	r.deps = r.deps[:0]
	r.sawDot, r.sawDotdot = false, false
	r.empty = ip.Size == 0
	if r.empty {
		// A directory whose first block has not reached the disk yet (a
		// rolled-back or not-yet-written mkdir). Structurally harmless.
		return
	}
	c := d.openDir(ip, r)
	var e dirent
	for c.next(&e) {
		if e.bad {
			r.steps = append(r.steps, dstep{bad: true,
				detail: fmt.Sprintf("bad entry at offset %d (reclen %d)", e.off, e.reclen)})
			continue
		}
		r.steps = append(r.steps, dstep{ino: e.ino, ftype: e.ftype,
			nameOff: int32(len(r.names)), nameLen: int32(len(e.name))})
		r.names = append(r.names, e.name...)
		switch string(e.name) {
		case ".":
			r.sawDot = true
		case "..":
			r.sawDotdot = true
		}
	}
}

// recProvider supplies the records the merge replays. The full checker
// serves freshly derived slices; the incremental checker splices baseline
// records with re-derived ones.
type recProvider interface {
	inodeRec(ino ffs.Ino) *inodeRec
	dirRec(ino ffs.Ino) *dirRec
}

// inoSeg locates one inode's contiguous run of findings inside a pass.
type inoSeg struct {
	ino        ffs.Ino
	start, end int32
}

// mergeArtifacts is everything a Baseline's full merge learned, in the
// shape the incremental merge (incmerge.go) needs to splice per-inode
// results: per-pass finding segments in ascending-inode order, the final
// fragment-ownership table, per-inode successful-claim counts, a reverse
// index from inodes to the directories whose entries name them, and the
// pass-4 aggregate counters.
type mergeArtifacts struct {
	rep  Report
	segs [4][]inoSeg // per pass, ascending ino; only inos with findings

	ownBase []ffs.Ino // frag - DataStart -> sole claimant (0 = unclaimed)
	success []int32   // per ino: successful claims in pass 1

	refDirs map[ffs.Ino][]ffs.Ino // target ino -> dirs with an entry naming it

	aggStale, aggLeaks int

	// conflictFree: no CrossLink findings, so ownBase's single-claimant
	// entries describe the complete claim relation. rootOK: the merge ran
	// all four passes (no early return). The incremental merge requires
	// both.
	conflictFree bool
	rootOK       bool
}

// seg records ino's findings slice [start, len(rep.Findings)) for pass p.
func (a *mergeArtifacts) seg(p int, ino ffs.Ino, start int) {
	if a != nil && len(a.rep.Findings) > start {
		a.segs[p] = append(a.segs[p], inoSeg{ino, int32(start), int32(len(a.rep.Findings))})
	}
}

// ownTable is the merge's fragment-ownership table, one entry per data
// fragment, tagged so a caller reuses it across merges without clearing:
// entry (epoch<<32 | ino) is live only when its epoch is the current one.
type ownTable struct {
	own   []uint64
	epoch uint64
}

// next sizes t for n data fragments and starts a new epoch, clearing the
// table when the 32-bit epoch wraps so no old tag reads as current.
func (t *ownTable) next(n int) {
	if len(t.own) != n {
		t.own, t.epoch = make([]uint64, n), 0
	}
	t.epoch++
	if t.epoch == 1<<32 {
		clear(t.own)
		t.epoch = 1
	}
}

// mergeReport replays the records in ascending-inode order, reproducing
// the historical four passes, under a new epoch of ot. A non-nil art
// (whose rep must be the same object as rep) additionally records the
// merge's artifacts for incremental re-merging.
func mergeReport(sb *ffs.Superblock, img Image, pr recProvider, rep *Report, ot *ownTable, art *mergeArtifacts) {
	ot.next(int(sb.TotalFrags - sb.DataStart))
	own, epoch := ot.own, ot.epoch
	tag := epoch << 32
	rep.Refs = resized(rep.Refs, int(sb.NInodes))
	if art != nil {
		art.conflictFree = true
	}

	// Pass 1: replay every allocated inode's walk script, claiming
	// fragments (first claimant wins; later claimants cross-link).
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := pr.inodeRec(ino)
		if !r.alloc {
			continue
		}
		rep.AllocatedInodes++
		mark := len(rep.Findings)
		success := int32(0)
		for i := range r.steps {
			st := &r.steps[i]
			if !st.claim() {
				rep.Findings = append(rep.Findings, Finding{Kind: Kind(st.kind), Ino: ino, Detail: st.detail})
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				idx := f - sb.DataStart
				if e := own[idx]; e>>32 == epoch && ffs.Ino(uint32(e)) != ino {
					rep.add(CrossLink, ino, "fragment %d also owned by inode %d", f, ffs.Ino(uint32(e)))
					if art != nil {
						art.conflictFree = false
					}
					continue
				}
				own[idx] = tag | uint64(uint32(ino))
				rep.ReferencedFrags++
				success++
			}
		}
		if art != nil {
			art.success[ino] = success
			art.seg(0, ino, mark)
		}
	}

	// Pass 2: directory tree from the root, counting references and
	// validating entries, in ascending-inode order.
	root := pr.inodeRec(ffs.RootIno)
	if !root.alloc || !root.ok || !root.ip.IsDir() {
		rep.add(BadSuperblock, ffs.RootIno, "root inode missing or not a directory")
		return
	}
	if art != nil {
		art.rootOK = true
	}
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := pr.inodeRec(ino)
		if r.alloc && r.ok && r.ip.IsDir() {
			mark := len(rep.Findings)
			mergeDir(sb, pr, ino, pr.dirRec(ino), rep)
			art.seg(1, ino, mark)
		}
	}

	// Pass 3: link counts, ascending-inode order.
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := pr.inodeRec(ino)
		if !r.alloc || !r.ok {
			continue
		}
		mark := len(rep.Findings)
		mergeLink(&r.ip, ino, rep.Refs[ino], rep)
		art.seg(2, ino, mark)
	}

	// Pass 4: bitmap reconciliation, reading the (possibly delta) image
	// live — the delta itself is the bitmap shadow.
	ibm := img.Range(int64(sb.IBmapStart)*ffs.FragSize, (int64(sb.NInodes)+7)/8)
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		set := ibm[ino/8]&(1<<(uint(ino)%8)) != 0
		r := pr.inodeRec(ino)
		mark := len(rep.Findings)
		mergeIbm(r.alloc && r.ok, set, ino, rep)
		art.seg(3, ino, mark)
	}
	fbm := img.Range(int64(sb.FBmapStart)*ffs.FragSize, (int64(sb.TotalFrags)+7)/8)
	leaks, stale := 0, 0
	for f := sb.DataStart; f < sb.TotalFrags; f++ {
		set := fbm[f/8]&(1<<(uint(f)%8)) != 0
		owned := own[f-sb.DataStart]>>32 == epoch
		if owned && !set {
			stale++
		} else if !owned && set {
			leaks++
		}
	}
	if art != nil {
		art.aggStale, art.aggLeaks = stale, leaks
		for f := sb.DataStart; f < sb.TotalFrags; f++ {
			if e := own[f-sb.DataStart]; e>>32 == epoch {
				art.ownBase[f-sb.DataStart] = ffs.Ino(uint32(e))
			}
		}
	}
	mergeFragAgg(stale, leaks, rep)
}

// mergeLink emits ino's pass-3 link-count finding, if any.
func mergeLink(ip *ffs.Inode, ino ffs.Ino, refs int, rep *Report) {
	if int(ip.Nlink) < refs {
		rep.add(LinkUndercount, ino, "nlink %d < %d references", ip.Nlink, refs)
	} else if int(ip.Nlink) > refs {
		rep.add(LinkOvercount, ino, "nlink %d > %d references", ip.Nlink, refs)
	}
}

// mergeIbm emits ino's pass-4 inode-bitmap finding, if any.
func mergeIbm(used, set bool, ino ffs.Ino, rep *Report) {
	if used && !set {
		rep.add(BitmapStale, ino, "allocated inode marked free")
	} else if !used && set && ino > ffs.RootIno {
		rep.add(LeakedInode, ino, "free inode marked allocated")
	}
}

// mergeFragAgg emits the trailing pass-4 aggregate findings.
func mergeFragAgg(stale, leaks int, rep *Report) {
	if stale > 0 {
		rep.add(BitmapStale, 0, "%d referenced fragments marked free", stale)
	}
	if leaks > 0 {
		rep.add(LeakedBlock, 0, "%d fragments leaked (allocated but unreferenced)", leaks)
	}
}

// mergeDir replays one directory's parse against the current inode view.
func mergeDir(sb *ffs.Superblock, pr recProvider, ino ffs.Ino, dr *dirRec, rep *Report) {
	if dr.empty {
		return
	}
	for i := range dr.steps {
		st := &dr.steps[i]
		if st.bad {
			rep.Findings = append(rep.Findings, Finding{Kind: BadDirFormat, Ino: ino, Detail: st.detail})
			continue
		}
		var target *ffs.Inode
		if uint32(st.ino) < sb.NInodes {
			rep.Refs[st.ino]++
			if tr := pr.inodeRec(st.ino); st.ino >= 2 && tr.alloc && tr.ok {
				target = &tr.ip
			}
		}
		name := dr.name(st)
		switch {
		case target == nil:
			rep.add(DanglingEntry, ino, "entry %q names unallocated inode %d", name, st.ino)
		case st.ftype == ffs.FtypeDir && !target.IsDir(),
			st.ftype == ffs.FtypeFile && target.IsDir():
			rep.add(TypeMismatch, ino, "entry %q type %d vs mode %#x", name, st.ftype, target.Mode)
		}
		if st.nameLen == 1 && name[0] == '.' && st.ino != ino {
			rep.add(TypeMismatch, ino, "'.' names %d", st.ino)
		}
	}
	if !dr.sawDot || !dr.sawDotdot {
		rep.add(BadDirFormat, ino, "missing '.' or '..'")
	}
}

// checkState is a full set of freshly derived records for one image; it is
// the trivial recProvider behind CheckImage and Repair, and the
// construction state of a Baseline.
type checkState struct {
	sb     ffs.Superblock
	inodes []inodeRec
	dirs   []dirRec
	own    ownTable
}

func newCheckState(sb ffs.Superblock) *checkState {
	return &checkState{
		sb:     sb,
		inodes: make([]inodeRec, sb.NInodes),
		dirs:   make([]dirRec, sb.NInodes),
	}
}

// checkStates recycles the state of one-shot checks (CheckImage, Check,
// Repair): two NInodes-long record arrays plus a TotalFrags-long ownership
// table per call. Since crashmc checks every candidate as a delta against
// its worker's Baseline, Journaling's recovered ones included, it runs a
// full check only for a retained violation and a shrink step; the rest
// are one per image (mdcrash, the fault exhibit, a benchmark cell's final
// check). Every record is reset as it is derived and the merge reads
// only records derived from its own image, so a recycled state reports
// exactly what a fresh one does.
var checkStates sync.Pool

// getCheckState returns a state for sb's geometry, recycled when the pool
// has one of that geometry. Callers hand it back with checkStates.Put once
// the report is complete (a check that panics simply drops it).
func getCheckState(sb ffs.Superblock) *checkState {
	if st, _ := checkStates.Get().(*checkState); st != nil && len(st.inodes) == int(sb.NInodes) {
		st.sb = sb // merge re-sizes the ownership table if the data region differs
		return st
	}
	return newCheckState(sb)
}

func (st *checkState) inodeRec(ino ffs.Ino) *inodeRec { return &st.inodes[ino] }
func (st *checkState) dirRec(ino ffs.Ino) *dirRec     { return &st.dirs[ino] }

// deriveAll derives every inode record and every valid directory's parse,
// serially.
func (st *checkState) deriveAll(img Image) {
	d := deriver{img: img, sb: &st.sb}
	for ino := ffs.Ino(2); uint32(ino) < st.sb.NInodes; ino++ {
		d.deriveInode(ino, &st.inodes[ino])
	}
	for ino := ffs.Ino(2); uint32(ino) < st.sb.NInodes; ino++ {
		r := &st.inodes[ino]
		if r.alloc && r.ok && r.ip.IsDir() {
			d.deriveDir(ino, &r.ip, &st.dirs[ino])
		}
	}
}
