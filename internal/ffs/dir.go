package ffs

import (
	"encoding/binary"
	"fmt"
)

// Directory entry format (FFS-style, simplified):
//
//	ino     uint32  (0 = unused entry; its reclen is free space)
//	reclen  uint16  (total space this entry owns, 4-byte aligned)
//	namelen uint8
//	ftype   uint8
//	name    [namelen]byte, padded to 4-byte alignment
//
// Entries never cross a DirChunk (512-byte) boundary. Because disk sectors
// are 512 bytes and writes are sector-atomic, a crash can never tear an
// individual entry — the property all four ordering schemes rely on.
const (
	direntHdr  = 8
	maxNameLen = 255
)

// File types stored in directory entries (for fsck's benefit).
const (
	FtypeFile uint8 = 1
	FtypeDir  uint8 = 2
)

// entrySpace returns the aligned space a name needs.
func entrySpace(namelen int) int {
	return (direntHdr + namelen + 3) &^ 3
}

// Dirent is a decoded directory entry.
type Dirent struct {
	Ino    Ino
	Reclen int
	Name   string
	Ftype  uint8
	Off    int // byte offset within the directory block data
}

// PutDirent encodes one directory entry at the start of b (fsck's repair
// writes reformatted chunks through it too).
func PutDirent(b []byte, ino Ino, reclen int, name string, ftype uint8) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(ino))
	le.PutUint16(b[4:], uint16(reclen))
	b[6] = uint8(len(name))
	b[7] = ftype
	copy(b[direntHdr:], name)
}

// readDirent decodes the entry at off as holding name: a lookup that found
// it passes the name it looked for, which the Dirent shares, not copies.
func readDirent(b []byte, off int, name string) Dirent {
	le := binary.LittleEndian
	return Dirent{
		Ino:    Ino(le.Uint32(b[off:])),
		Reclen: int(le.Uint16(b[off+4:])),
		Name:   name,
		Ftype:  b[off+7],
		Off:    off,
	}
}

// initDirChunks formats raw directory space: each 512-byte chunk becomes a
// single empty entry owning the whole chunk.
func initDirChunks(b []byte) {
	for off := 0; off < len(b); off += DirChunk {
		PutDirent(b[off:], 0, DirChunk, "", 0)
	}
}

// scanChunk iterates the entries of one chunk, calling f with each; f
// returning false stops the scan. It returns the number of entries visited.
func scanChunk(b []byte, chunkOff int, f func(d Dirent) bool) int {
	n := 0
	off := chunkOff
	for off < chunkOff+DirChunk {
		d := readDirent(b, off, string(entryName(b, off)))
		if d.Reclen <= 0 {
			break // corrupt; fsck's problem
		}
		n++
		if !f(d) {
			break
		}
		off += d.Reclen
	}
	return n
}

// findEntry scans directory data for name. It returns the entry and true if
// found, and always returns the total number of entries scanned (the CPU
// cost driver for the paper's "less CPU time spent checking the directory
// contents" effect). Lookups reach it through a block's dirIndex, which
// gives the same answer without the walk and falls back to it only for a
// block it cannot index.
//
// The scan reads raw dirent bytes in place: every create/lookup/remove
// walks directories, so materializing a Dirent (and its name string) per
// visited entry would put an allocation on the per-operation hot path. The
// string conversion in the name comparison is allocation-free (the
// compiler never heap-allocates a string used only as a comparison
// operand).
func findEntry(data []byte, name string) (Dirent, bool, int) {
	le := binary.LittleEndian
	scanned := 0
	for chunk := 0; chunk < len(data); chunk += DirChunk {
		for off := chunk; off < chunk+DirChunk; {
			reclen := int(le.Uint16(data[off+4:]))
			if reclen <= 0 {
				break // corrupt; fsck's problem
			}
			scanned++
			ino := Ino(le.Uint32(data[off:]))
			namelen := int(data[off+6])
			if ino != 0 && namelen == len(name) &&
				string(data[off+direntHdr:off+direntHdr+namelen]) == name {
				return readDirent(data, off, name), true, scanned
			}
			off += reclen
		}
	}
	return Dirent{}, false, scanned
}

// addEntryInData finds room for (name, ino) in existing directory data and
// stores the entry, returning its offset. ok is false when the block is
// full. Free space is either an unused entry (ino 0) or slack at the tail
// of a live entry's reclen.
func addEntryInData(data []byte, name string, ino Ino, ftype uint8) (off int, ok bool) {
	for chunk := 0; chunk < len(data); chunk += DirChunk {
		if off, ok := addEntryInChunk(data, chunk, name, ino, ftype); ok {
			return off, true
		}
	}
	return 0, false
}

// addEntryInChunk is addEntryInData confined to the chunk at chunkOff.
func addEntryInChunk(data []byte, chunkOff int, name string, ino Ino, ftype uint8) (off int, ok bool) {
	le := binary.LittleEndian
	need := entrySpace(len(name))
	for off := chunkOff; off < chunkOff+DirChunk; {
		reclen := int(le.Uint16(data[off+4:]))
		if reclen <= 0 {
			break // corrupt; fsck's problem
		}
		entIno := Ino(le.Uint32(data[off:]))
		if entIno == 0 && reclen >= need {
			// Claim the free entry's space.
			PutDirent(data[off:], ino, reclen, name, ftype)
			return off, true
		}
		used := entrySpace(int(data[off+6]))
		if entIno != 0 && reclen-used >= need {
			// Split the slack off the live entry.
			le.PutUint16(data[off+4:], uint16(used))
			newOff := off + used
			PutDirent(data[newOff:], ino, reclen-used, name, ftype)
			return newOff, true
		}
		off += reclen
	}
	return 0, false
}

// removeEntryInData clears the entry at off, coalescing its space into the
// previous entry of the same chunk when one exists (the FFS compaction
// rule). It returns the offset that now owns the space.
func removeEntryInData(data []byte, off int) int {
	chunk := off / DirChunk * DirChunk
	le := binary.LittleEndian
	prev := -1
	for o := chunk; o < chunk+DirChunk && o != off; {
		reclen := int(le.Uint16(data[o+4:]))
		if reclen <= 0 {
			break // corrupt; fsck's problem
		}
		prev = o
		o += reclen
	}
	victimReclen := int(le.Uint16(data[off+4:]))
	if prev >= 0 {
		// Grow the previous entry over the victim's space.
		prevReclen := int(le.Uint16(data[prev+4:]))
		le.PutUint16(data[prev+4:], uint16(prevReclen+victimReclen))
		// Scrub the victim header so stale bytes can't masquerade as an
		// entry (the reclen walk no longer reaches it, but fsck reads raw
		// bytes).
		le.PutUint32(data[off:], 0)
		return prev
	}
	// First entry of the chunk: becomes an unused entry owning its space.
	PutDirent(data[off:], 0, victimReclen, "", 0)
	return off
}

// countLive tallies directory data's live entries and reports whether any
// live entry other than "." and ".." exists. It is the allocation-free
// scan behind dirEmpty: rmdir checks every victim directory, and decoding
// a []Dirent per check would allocate on the remove hot path.
func countLive(data []byte) (live int, nonDot bool) {
	le := binary.LittleEndian
	for chunk := 0; chunk < len(data); chunk += DirChunk {
		for off := chunk; off < chunk+DirChunk; {
			reclen := int(le.Uint16(data[off+4:]))
			if reclen <= 0 {
				break // corrupt; fsck's problem
			}
			if Ino(le.Uint32(data[off:])) != 0 {
				live++
				namelen := int(data[off+6])
				name := data[off+direntHdr : off+direntHdr+namelen]
				if !(namelen == 1 && name[0] == '.') &&
					!(namelen == 2 && name[0] == '.' && name[1] == '.') {
					nonDot = true
				}
			}
			off += reclen
		}
	}
	return live, nonDot
}

// listEntries returns all live entries in directory data.
func listEntries(data []byte) []Dirent {
	var out []Dirent
	for chunk := 0; chunk < len(data); chunk += DirChunk {
		scanChunk(data, chunk, func(d Dirent) bool {
			if d.Ino != 0 {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// mustAddEntryRaw is the mkfs helper for seeding "." and "..".
func mustAddEntryRaw(data []byte, name string, ino Ino, ftype uint8) {
	if _, ok := addEntryInData(data, name, ino, ftype); !ok {
		panic(fmt.Sprintf("ffs: mkfs could not add %q", name))
	}
}
