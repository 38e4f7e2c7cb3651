// Package ffs implements the substrate file system: a Berkeley FFS-like
// UNIX file system (the paper's ufs) with 8 KB blocks, 1 KB fragments,
// direct/single/double-indirect block maps, variable-length directory
// entries, and bitmap free maps — everything the five metadata ordering
// schemes operate on. Structural changes (block allocation, block freeing,
// link addition, link removal) are routed through the Ordering strategy
// (see order.go); package ordering provides the implementations: the five
// the paper compares and the extensions.
package ffs

import (
	"encoding/binary"
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/disk"
	"metaupdate/internal/jlog"
)

// Geometry constants (the paper's ufs used 8 KB blocks / 1 KB fragments).
const (
	FragSize       = cache.FragSize // 1 KB
	BlockFrags     = 8
	BlockSize      = BlockFrags * FragSize // 8 KB
	InodeSize      = 128
	InodesPerBlock = BlockSize / InodeSize // 64
	DirChunk       = 512                   // directory entries never cross a chunk (= sector) boundary
	NDirect        = 12
	PtrsPerBlock   = BlockSize / 4 // int32 pointers in an indirect block

	// Maximum file size covered by direct + single + double indirect.
	MaxBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock
)

// Ino is an inode number. 0 is invalid; RootIno is the root directory.
type Ino uint32

// RootIno is the root directory's inode number.
const RootIno Ino = 2

// Magic identifies a formatted file system.
const Magic uint32 = 0x19941114 // OSDI '94

// Superblock describes the on-disk layout. All region bounds are fragment
// numbers.
type Superblock struct {
	Magic      uint32
	TotalFrags int32
	NInodes    uint32
	InodeStart int32 // inode table
	IBmapStart int32 // inode allocation bitmap
	FBmapStart int32 // fragment allocation bitmap
	DataStart  int32 // first allocatable data fragment (block aligned)

	// Journal region (Journaling scheme only; both zero otherwise). The
	// region sits between the fragment bitmap and the data region, inside
	// the fragment-bitmap run Format marks allocated, so it is invisible
	// to allocation and to fsck's bitmap reconciliation. Old images decode
	// zeros here: no journal.
	JournalStart int32
	JournalFrags int32
}

// InodeFrag returns the fragment holding inode ino, and the byte offset of
// the inode within that fragment's block.
func (sb *Superblock) InodeFrag(ino Ino) (blockFrag int32, off int) {
	idx := int32(ino) / InodesPerBlock // inode-table block index
	return sb.InodeStart + idx*BlockFrags, int(ino) % InodesPerBlock * InodeSize
}

// IBmapFrags returns the size of the inode bitmap in fragments.
func (sb *Superblock) IBmapFrags() int32 {
	return int32((sb.NInodes + FragSize*8 - 1) / (FragSize * 8))
}

// FBmapFrags returns the size of the fragment bitmap in fragments.
func (sb *Superblock) FBmapFrags() int32 {
	return (sb.TotalFrags + FragSize*8 - 1) / (FragSize * 8)
}

func (sb *Superblock) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.Magic)
	le.PutUint32(b[4:], uint32(sb.TotalFrags))
	le.PutUint32(b[8:], sb.NInodes)
	le.PutUint32(b[12:], uint32(sb.InodeStart))
	le.PutUint32(b[16:], uint32(sb.IBmapStart))
	le.PutUint32(b[20:], uint32(sb.FBmapStart))
	le.PutUint32(b[24:], uint32(sb.DataStart))
	le.PutUint32(b[28:], uint32(sb.JournalStart))
	le.PutUint32(b[32:], uint32(sb.JournalFrags))
}

// SuperblockSize is the encoded superblock's length in bytes, from the
// start of fragment 0.
const SuperblockSize = 36

// Decode reads the superblock from the first SuperblockSize bytes of b —
// the one decoder of the layout, for the mount path and for fsck. On a bad
// magic it returns an error with sb.Magic set to what it found.
func (sb *Superblock) Decode(b []byte) error {
	le := binary.LittleEndian
	sb.Magic = le.Uint32(b[0:])
	if sb.Magic != Magic {
		return fmt.Errorf("ffs: bad magic %#x", sb.Magic)
	}
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

// FormatParams sizes a new file system.
type FormatParams struct {
	TotalBytes int64 // file system size; rounded down to whole blocks
	NInodes    uint32
	// JournalFrags reserves an on-disk journal region of that many
	// fragments between the fragment bitmap and the data region (the
	// Journaling scheme sets it; 0 = no journal, the layout of every
	// other scheme).
	JournalFrags int32
}

// Format writes a fresh, empty file system directly onto the disk image
// (the mkfs path: it runs outside simulated time). The root directory is
// created with "." and ".." entries.
func Format(d *disk.Disk, fp FormatParams) (*Superblock, error) {
	totalFrags := int32(fp.TotalBytes / FragSize / BlockFrags * BlockFrags)
	if int64(totalFrags)*FragSize > int64(d.Sectors())*disk.SectorSize {
		return nil, fmt.Errorf("ffs: format size %d exceeds disk", fp.TotalBytes)
	}
	if fp.NInodes == 0 {
		fp.NInodes = 16384
	}
	// Round the inode count to a whole number of inode-table blocks.
	fp.NInodes = (fp.NInodes + InodesPerBlock - 1) / InodesPerBlock * InodesPerBlock

	sb := &Superblock{
		Magic:      Magic,
		TotalFrags: totalFrags,
		NInodes:    fp.NInodes,
		InodeStart: BlockFrags, // block 0 is the superblock
	}
	inodeFrags := int32(fp.NInodes) * InodeSize / FragSize
	sb.IBmapStart = sb.InodeStart + inodeFrags
	sb.FBmapStart = sb.IBmapStart + sb.IBmapFrags()
	dataStart := sb.FBmapStart + sb.FBmapFrags()
	if fp.JournalFrags > 0 {
		if fp.JournalFrags < 4 {
			return nil, fmt.Errorf("ffs: journal of %d frags is too small", fp.JournalFrags)
		}
		sb.JournalStart = dataStart
		sb.JournalFrags = fp.JournalFrags
		dataStart += fp.JournalFrags
	}
	// Block-align the data region.
	sb.DataStart = (dataStart + BlockFrags - 1) / BlockFrags * BlockFrags
	if sb.DataStart >= totalFrags {
		return nil, fmt.Errorf("ffs: no room for data region")
	}

	// All writes go through disk.WriteAt against freshly-zeroed media, so
	// each region is built in a scratch buffer and stored once; pulling the
	// flat disk.Image here would defeat the media's lazy chunking by
	// materializing the full (mostly untouched) size limit per System.

	// Superblock.
	var frag [FragSize]byte
	sb.encode(frag[:])
	d.WriteAt(0, frag[:])

	// Fragment bitmap: metadata region plus the root directory fragment
	// (frags [0, DataStart]) marked allocated — a contiguous run of bits.
	rootFrag := sb.DataStart
	fbm := make([]byte, int(rootFrag)/8+1)
	for f := int32(0); f <= rootFrag; f++ {
		fbm[f/8] |= 1 << (uint(f) % 8)
	}
	d.WriteAt(int64(sb.FBmapStart)*FragSize, fbm)

	// Journal header: an empty log whose first transaction will carry
	// sequence 1 at region offset 1 (region frag 0 is the header itself).
	if sb.JournalFrags > 0 {
		var hdr [jlog.SectorSize]byte
		jlog.EncodeHeader(hdr[:], jlog.Header{TailSeq: 1, TailOff: 1})
		d.WriteAt(int64(sb.JournalStart)*FragSize, hdr[:])
	}

	// Inode bitmap: inodes 0, 1 (reserved) and the root.
	var ibm [1]byte
	for _, ino := range []Ino{0, 1, RootIno} {
		ibm[ino/8] |= 1 << (uint(ino) % 8)
	}
	d.WriteAt(int64(sb.IBmapStart)*FragSize, ibm[:])

	// Root directory: one fragment of directory data.
	dirData := frag[:]
	clear(dirData)
	initDirChunks(dirData)
	mustAddEntryRaw(dirData, ".", RootIno, FtypeDir)
	mustAddEntryRaw(dirData, "..", RootIno, FtypeDir)
	d.WriteAt(int64(rootFrag)*FragSize, dirData)

	root := Inode{Mode: ModeDir, Nlink: 2, Size: FragSize}
	root.Direct[0] = rootFrag
	var itab [InodeSize]byte
	root.encode(itab[:])
	blockFrag, off := sb.InodeFrag(RootIno)
	d.WriteAt(int64(blockFrag)*FragSize+int64(off), itab[:])
	return sb, nil
}
