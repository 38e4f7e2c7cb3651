// Package fsck verifies the structural integrity of a raw file system
// image — the role the fsck utility plays for the paper's schemes, all of
// which "prevent the loss of structural integrity" but "require assistance
// when recovering from system failure".
//
// The checker distinguishes two classes of findings:
//
//   - Violations: states fsck cannot repair without losing integrity —
//     cross-linked blocks, pointers outside the data region, directory
//     entries naming unallocated inodes, type mismatches, and link counts
//     lower than the number of on-disk references (premature free). The
//     paper's ordering rules exist precisely to prevent these.
//
//   - Repairables: resource leaks — blocks or inodes marked allocated but
//     unreferenced, link counts higher than the reference count, free-map
//     entries out of date. All schemes (even Conventional) may leak across
//     a crash; fsck reclaims them mechanically.
//
// It also supports the allocation-initialization security check: with a
// workload that stamps every data fragment with its owner's inode number,
// ContentViolations detects file blocks that leaked another (deleted)
// file's contents — the security hole of running without allocation
// initialization.
package fsck

import (
	"encoding/binary"
	"fmt"

	"metaupdate/internal/ffs"
	"metaupdate/internal/jlog"
)

// Kind classifies a finding.
type Kind int

// Finding kinds. Violations first, repairables after KindRepairable.
const (
	BadSuperblock Kind = iota
	CrossLink
	BadPointer
	DanglingEntry
	TypeMismatch
	LinkUndercount
	BadDirFormat
	UninitializedData

	kindRepairableBoundary

	LinkOvercount
	LeakedBlock
	LeakedInode
	BitmapStale
	// ShortFile: a file's size implies blocks its pointers do not provide
	// (a size update outran a rolled-back allocation); fsck truncates.
	ShortFile
)

func (k Kind) String() string {
	switch k {
	case BadSuperblock:
		return "BadSuperblock"
	case CrossLink:
		return "CrossLink"
	case BadPointer:
		return "BadPointer"
	case DanglingEntry:
		return "DanglingEntry"
	case TypeMismatch:
		return "TypeMismatch"
	case LinkUndercount:
		return "LinkUndercount"
	case BadDirFormat:
		return "BadDirFormat"
	case UninitializedData:
		return "UninitializedData"
	case LinkOvercount:
		return "LinkOvercount"
	case LeakedBlock:
		return "LeakedBlock"
	case LeakedInode:
		return "LeakedInode"
	case BitmapStale:
		return "BitmapStale"
	case ShortFile:
		return "ShortFile"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation reports whether the kind is an unrepairable integrity loss.
func (k Kind) Violation() bool { return k < kindRepairableBoundary }

// Finding is one fsck observation.
type Finding struct {
	Kind   Kind
	Ino    ffs.Ino
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s(ino %d): %s", f.Kind, f.Ino, f.Detail)
}

// Report is the outcome of a Check.
type Report struct {
	Findings []Finding
	// Refs[ino] is the number of directory entries naming ino.
	Refs map[ffs.Ino]int
	// AllocatedInodes and ReferencedFrags summarize the walk.
	AllocatedInodes int
	ReferencedFrags int
	// noDetail suppresses Detail formatting in merge-time findings (Kind
	// and Ino are always set). Only DeltaChecker.SkipDetails sets it, for
	// callers that triage by Kind and re-check the few reports they keep.
	noDetail bool
}

// Violations returns only the unrepairable findings.
func (r *Report) Violations() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Kind.Violation() {
			out = append(out, f)
		}
	}
	return out
}

// Repairables returns only the fsck-repairable findings.
func (r *Report) Repairables() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Kind.Violation() {
			out = append(out, f)
		}
	}
	return out
}

func (r *Report) add(k Kind, ino ffs.Ino, format string, args ...interface{}) {
	f := Finding{Kind: k, Ino: ino}
	if !r.noDetail {
		f.Detail = fmt.Sprintf(format, args...)
	}
	r.Findings = append(r.Findings, f)
}

type checker struct {
	img Image
	// raw is the writable backing slice — set only by Repair, whose
	// in-place fixes need mutable views; Check paths read through img.
	raw []byte
	sb  ffs.Superblock
	rep *Report

	// fragOwner[frag - DataStart] = inode that references it (0 = none).
	fragOwner []ffs.Ino
}

func (c *checker) frag(f int32) []byte {
	return c.img.Range(int64(f)*ffs.FragSize, ffs.FragSize)
}

// Check walks a materialized image and returns the integrity report.
func Check(img []byte) *Report { return CheckImage(Bytes(img)) }

// CheckImage walks the image — materialized or virtual — and returns the
// integrity report. The walk derives per-inode and per-directory records
// and replays them through the deterministic merge (passes.go): pass 1
// claims every allocated inode's fragments, pass 2 walks the directory
// tree counting references and validating entries, pass 3 reconciles link
// counts (lower than the reference count risks premature free — an
// integrity violation; higher is a repairable leak; Refs counts the parent
// entry and ".", plus one ".." per child directory, matching the FFS
// convention), pass 4 reconciles both bitmaps (repairable either way, but
// referenced-but-free is the precursor to cross-links). All passes iterate
// in ascending-inode order, so the report is deterministic.
func CheckImage(img Image) *Report {
	rep := &Report{Refs: make(map[ffs.Ino]int)}
	var sb ffs.Superblock
	if err := decodeSB(img, &sb); err != nil {
		rep.add(BadSuperblock, 0, "%v", err)
		return rep
	}
	st := getCheckState(sb)
	st.deriveAll(img)
	st.merge(img, rep, nil)
	checkStates.Put(st)
	return rep
}

func decodeSB(img Image, sb *ffs.Superblock) error {
	le := binary.LittleEndian
	b := img.Range(0, 36)
	if le.Uint32(b[0:]) != ffs.Magic {
		return fmt.Errorf("bad magic %#x", le.Uint32(b[0:]))
	}
	sb.Magic = le.Uint32(b[0:])
	sb.TotalFrags = int32(le.Uint32(b[4:]))
	sb.NInodes = le.Uint32(b[8:])
	sb.InodeStart = int32(le.Uint32(b[12:]))
	sb.IBmapStart = int32(le.Uint32(b[16:]))
	sb.FBmapStart = int32(le.Uint32(b[20:]))
	sb.DataStart = int32(le.Uint32(b[24:]))
	sb.JournalStart = int32(le.Uint32(b[28:]))
	sb.JournalFrags = int32(le.Uint32(b[32:]))
	return nil
}

// ReplayJournal is the Journaling scheme's recovery step: it reads the
// journal region named by the image's own superblock and applies every
// committed transaction to its home location, in sequence order. Run it
// on the crashed image before Check/Repair. Images without a journal
// (every other scheme, and pre-journal images) are untouched. Returns the
// number of transactions applied; replay is idempotent — re-running it on
// a recovered image rewrites the same bytes.
func ReplayJournal(img []byte) int {
	var sb ffs.Superblock
	if err := decodeSB(Bytes(img), &sb); err != nil {
		return 0
	}
	return jlog.Replay(img, sb.JournalStart, sb.JournalFrags)
}

func (c *checker) readInode(ino ffs.Ino) ffs.Inode {
	frag, off := c.sb.InodeFrag(ino)
	return ffs.DecodeInode(c.img.Range(int64(frag)*ffs.FragSize+int64(off), ffs.InodeSize))
}

// claim records ino's ownership of frags [start, start+n), reporting range
// errors and cross-links.
func (c *checker) claim(ino ffs.Ino, start int32, n int) bool {
	if start < c.sb.DataStart || start+int32(n) > c.sb.TotalFrags {
		c.rep.add(BadPointer, ino, "fragment run [%d,%d) outside data region", start, start+int32(n))
		return false
	}
	for i := int32(0); i < int32(n); i++ {
		idx := start + i - c.sb.DataStart
		if owner := c.fragOwner[idx]; owner != 0 && owner != ino {
			c.rep.add(CrossLink, ino, "fragment %d also owned by inode %d", start+i, owner)
			continue
		}
		c.fragOwner[idx] = ino
		c.rep.ReferencedFrags++
	}
	return true
}

// claimFile walks ip's block map.
func (c *checker) claimFile(ino ffs.Ino, ip *ffs.Inode) {
	nblocks := (int(ip.Size) + ffs.BlockSize - 1) / ffs.BlockSize
	runLen := func(bi int) int {
		if bi == nblocks-1 {
			rem := int(ip.Size) % ffs.BlockSize
			if rem == 0 {
				return ffs.BlockFrags
			}
			return (rem + ffs.FragSize - 1) / ffs.FragSize
		}
		return ffs.BlockFrags
	}
	bi := 0
	for ; bi < nblocks && bi < ffs.NDirect; bi++ {
		if ip.Direct[bi] == 0 {
			c.rep.add(ShortFile, ino, "size implies direct block %d but it is unset", bi)
			continue
		}
		c.claim(ino, ip.Direct[bi], runLen(bi))
	}
	if bi < nblocks && ip.Indir == 0 {
		c.rep.add(ShortFile, ino, "size %d implies an indirect block but none is set", ip.Size)
		return
	}
	if ip.Indir != 0 {
		if c.claim(ino, ip.Indir, ffs.BlockFrags) {
			// An indirect block spans BlockFrags fragments.
			data := c.img.Range(int64(ip.Indir)*ffs.FragSize, ffs.BlockSize)
			for i := 0; i < ffs.PtrsPerBlock && bi < nblocks; i, bi = i+1, bi+1 {
				ptr := int32(binary.LittleEndian.Uint32(data[i*4:]))
				if ptr == 0 {
					c.rep.add(ShortFile, ino, "hole at indirect slot %d", i)
					continue
				}
				c.claim(ino, ptr, runLen(bi))
			}
		} else {
			bi += ffs.PtrsPerBlock
		}
	}
	if ip.Dindir != 0 {
		if c.claim(ino, ip.Dindir, ffs.BlockFrags) {
			// Decode the level-1 pointers before walking them: the walk
			// issues a Range per pointer, and Image views from scratch-
			// backed implementations do not survive that many later calls.
			var l1ptrs [ffs.PtrsPerBlock]int32
			ddata := c.img.Range(int64(ip.Dindir)*ffs.FragSize, ffs.BlockSize)
			for l1 := range l1ptrs {
				l1ptrs[l1] = int32(binary.LittleEndian.Uint32(ddata[l1*4:]))
			}
			for l1 := 0; l1 < ffs.PtrsPerBlock && bi < nblocks; l1++ {
				l1ptr := l1ptrs[l1]
				if l1ptr == 0 {
					c.rep.add(ShortFile, ino, "hole at dindirect slot %d", l1)
					bi += ffs.PtrsPerBlock
					continue
				}
				if !c.claim(ino, l1ptr, ffs.BlockFrags) {
					bi += ffs.PtrsPerBlock
					continue
				}
				ldata := c.img.Range(int64(l1ptr)*ffs.FragSize, ffs.BlockSize)
				for l2 := 0; l2 < ffs.PtrsPerBlock && bi < nblocks; l2, bi = l2+1, bi+1 {
					ptr := int32(binary.LittleEndian.Uint32(ldata[l2*4:]))
					if ptr == 0 {
						c.rep.add(ShortFile, ino, "hole under dindirect")
						continue
					}
					c.claim(ino, ptr, runLen(bi))
				}
			}
		}
	}
}

// dirData materializes a directory's contents from the image.
func (c *checker) dirData(ino ffs.Ino, ip ffs.Inode) []byte {
	out := make([]byte, 0, ip.Size)
	nblocks := (int(ip.Size) + ffs.BlockSize - 1) / ffs.BlockSize
	for bi := 0; bi < nblocks && bi < ffs.NDirect; bi++ {
		ptr := ip.Direct[bi]
		if ptr == 0 || ptr < c.sb.DataStart || ptr >= c.sb.TotalFrags {
			return out // already reported
		}
		n := ffs.BlockSize
		if rem := int(ip.Size) - bi*ffs.BlockSize; rem < n {
			n = (rem + ffs.FragSize - 1) / ffs.FragSize * ffs.FragSize
		}
		out = append(out, c.img.Range(int64(ptr)*ffs.FragSize, int64(n))...)
	}
	if int(ip.Size) < len(out) {
		out = out[:ip.Size]
	}
	return out
}

// DataMarkerMagic stamps crash-test file fragments (see ContentViolations).
const DataMarkerMagic uint32 = 0xFEEDFACE

// StampFragment writes the content marker into a 1 KB-aligned buffer slice
// so ContentViolations can attribute on-disk data to its owner.
func StampFragment(frag []byte, ino ffs.Ino) {
	binary.LittleEndian.PutUint32(frag[0:], DataMarkerMagic)
	binary.LittleEndian.PutUint32(frag[4:], uint32(ino))
}

// MakeStampedData builds n bytes of file content with every fragment
// stamped for ino (the crash workloads write files with this).
func MakeStampedData(ino ffs.Ino, n int) []byte {
	b := make([]byte, n)
	for off := 0; off < n; off += ffs.FragSize {
		end := off + 8
		if end > n {
			break
		}
		StampFragment(b[off:], ino)
	}
	return b
}

// ContentViolations scans a materialized image's file data fragments; see
// ContentViolationsImage.
func ContentViolations(img []byte) []Finding { return ContentViolationsImage(Bytes(img)) }

// ContentViolationsImage scans every file's data fragments. A fragment must
// be all-zero (never written), or stamped with its owner. A fragment stamped
// with a DIFFERENT inode is the allocation-initialization failure: the file
// exposes another (deleted) file's contents — the paper's security hole.
func ContentViolationsImage(img Image) []Finding {
	var sb ffs.Superblock
	if err := decodeSB(img, &sb); err != nil {
		return []Finding{{Kind: BadSuperblock, Detail: err.Error()}}
	}
	var out []Finding
	c := &checker{img: img, sb: sb}
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		ip := c.readInode(ino)
		if ip.Mode != ffs.ModeFile {
			continue
		}
		nblocks := (int(ip.Size) + ffs.BlockSize - 1) / ffs.BlockSize
		for bi := 0; bi < nblocks && bi < ffs.NDirect; bi++ {
			ptr := ip.Direct[bi]
			if ptr < sb.DataStart || ptr >= sb.TotalFrags {
				continue
			}
			nf := ffs.BlockFrags
			if bi == nblocks-1 {
				if rem := int(ip.Size) % ffs.BlockSize; rem != 0 {
					nf = (rem + ffs.FragSize - 1) / ffs.FragSize
				}
			}
			for i := int32(0); i < int32(nf); i++ {
				fr := c.frag(ptr + i)
				magic := binary.LittleEndian.Uint32(fr[0:])
				owner := ffs.Ino(binary.LittleEndian.Uint32(fr[4:]))
				if magic == DataMarkerMagic && owner != ino {
					out = append(out, Finding{Kind: UninitializedData, Ino: ino,
						Detail: fmt.Sprintf("fragment %d contains inode %d's data", ptr+i, owner)})
				}
			}
		}
	}
	return out
}
