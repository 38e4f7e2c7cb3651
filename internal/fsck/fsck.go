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
	// Refs[ino] is the number of directory entries naming ino, for every
	// ino below the superblock's NInodes. An entry naming an inode past
	// the table is dangling, and no pass reads its count.
	Refs []int
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
	rep := &Report{}
	var sb ffs.Superblock
	if err := decodeSB(img, &sb); err != nil {
		rep.add(BadSuperblock, 0, "%v", err)
		return rep
	}
	st := getCheckState(sb)
	st.deriveAll(img)
	mergeReport(&st.sb, img, st, rep, &st.own, nil)
	checkStates.Put(st)
	return rep
}

// decodeSB reads img's superblock through its one decoder, ffs's.
func decodeSB(img Image, sb *ffs.Superblock) error {
	if sb.Decode(img.Range(0, ffs.SuperblockSize)) != nil {
		return fmt.Errorf("bad magic %#x", sb.Magic)
	}
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

// ContentViolationsImage scans every file's data fragments — the data runs
// of the checker's own walk scripts, so whatever block map Check follows
// (indirect blocks included) this follows too. A fragment must be all-zero
// (never written), or stamped with its owner. A fragment stamped with a
// DIFFERENT inode is the allocation-initialization failure: the file
// exposes another (deleted) file's contents — the paper's security hole.
func ContentViolationsImage(img Image) []Finding {
	var sb ffs.Superblock
	if err := decodeSB(img, &sb); err != nil {
		return []Finding{{Kind: BadSuperblock, Detail: err.Error()}}
	}
	var out []Finding
	d := deriver{img: img, sb: &sb}
	var r inodeRec
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		d.deriveInode(ino, &r)
		if r.ip.Mode != ffs.ModeFile {
			continue
		}
		for i := range r.steps {
			st := &r.steps[i]
			if st.kind != claimData {
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				fr := img.Range(int64(f)*ffs.FragSize, 8)
				magic := binary.LittleEndian.Uint32(fr[0:])
				owner := ffs.Ino(binary.LittleEndian.Uint32(fr[4:]))
				if magic == DataMarkerMagic && owner != ino {
					out = append(out, Finding{Kind: UninitializedData, Ino: ino,
						Detail: fmt.Sprintf("fragment %d contains inode %d's data", f, owner)})
				}
			}
		}
	}
	return out
}
