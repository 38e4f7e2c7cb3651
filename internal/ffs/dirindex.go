package ffs

import (
	"encoding/binary"

	"metaupdate/internal/cache"
)

// Directory lookup from an index. findEntry and addEntryInData walk a
// directory block from its first entry, and a create walks it twice (the
// miss in absent, then the first fit), so on the host a directory costs the
// square of its size. A dirIndex is state derived from one directory block's
// bytes that gives the same answers, and the same virtual CPU charge,
// without the walk:
//
//   - a map from the hash of each live name to its entry's offset finds an
//     entry;
//   - per-chunk entry counts give what the scan visits: a miss visits every
//     entry, a hit every entry of the chunks before its own plus its place in
//     its chunk (entries never cross a chunk);
//   - per-chunk largest free spans give the scan's first fit: the first chunk
//     whose span fits holds the first entry that fits, so only that chunk is
//     walked.
//
// An index is keyed by directory and block address and bound to the buffer
// it was built from. The binding is a pointer compared, never read through:
// the bytes always come from a caller that holds the buffer, so an index
// bound to a buffer whose storage went back to the cache's pool is only
// stale. Another buffer at that address means the block was evicted and
// read back, or its abandoned write dropped it, so the index is rebuilt
// from the bytes; a block that growBlock moves carries its index
// along, since its bytes are copied unchanged. A block holding two live names
// with one hash, or an entry that runs past its chunk, is answered by the
// scans themselves.

// dirChunks is the number of chunks in a directory block.
const dirChunks = BlockSize / DirChunk

// dirKey names a directory block: its directory and its first fragment.
type dirKey struct {
	dir  Ino
	frag int64
}

// dirIndex is the derived index of one directory block.
type dirIndex struct {
	buf    *cache.Buf
	nchunk int               // chunks indexed: the part of the block the directory's size covers
	names  map[uint32]uint16 // hash of each live name -> its entry's offset
	counts [dirChunks]uint16 // entries a walk of each chunk visits
	spans  [dirChunks]uint16 // largest free space per chunk: an unused entry's reclen, a live one's slack
	scan   bool              // answer by the scans: two live names share a hash, or an entry overruns its chunk
}

// dirIndexes holds the index of every directory block in use.
type dirIndexes map[dirKey]*dirIndex

// of returns the index of dir's block b, whose bytes the directory's size
// covers are data: rebuilt if it was bound to another buffer, extended over
// the chunks the directory has grown into since it was last used.
func (m dirIndexes) of(dir Ino, b *cache.Buf, data []byte) *dirIndex {
	k := dirKey{dir, b.Frag}
	x := m[k]
	if x == nil {
		x = &dirIndex{}
		m[k] = x
	}
	if n := len(data) / DirChunk; x.buf != b || n < x.nchunk {
		x.build(b, data)
	} else if n > x.nchunk {
		x.extend(data)
	}
	return x
}

// remove clears the live entry at off in dir's block b (removeEntryInData),
// bringing along the index bound to b if there is one.
func (m dirIndexes) remove(dir Ino, b *cache.Buf, off int) {
	x := m[dirKey{dir, b.Frag}]
	if x == nil || x.buf != b {
		removeEntryInData(b.Data, off)
		return
	}
	if x.scan {
		// Rebuilt whole: the removal may take away what sent the block to
		// the scans.
		removeEntryInData(b.Data, off)
		x.build(b, b.Data[:x.nchunk*DirChunk])
		return
	}
	delete(x.names, nameHash(entryName(b.Data, off)))
	removeEntryInData(b.Data, off)
	x.walk(b.Data, off/DirChunk, false)
}

// moved carries the index of dir's block from buffer from to buffer to,
// which holds a copy of its bytes at another address.
func (m dirIndexes) moved(dir Ino, from, to *cache.Buf) {
	k := dirKey{dir, from.Frag}
	if x := m[k]; x != nil {
		delete(m, k)
		if x.buf == from {
			x.buf = to
			m[dirKey{dir, to.Frag}] = x
		}
	}
}

// drop forgets the indexes of dir's blocks, runs (the directory is freed).
func (m dirIndexes) drop(dir Ino, runs []FragRun) {
	for _, r := range runs {
		delete(m, dirKey{dir, int64(r.Start)})
	}
}

// build indexes data, the covered bytes of block b, from scratch.
func (x *dirIndex) build(b *cache.Buf, data []byte) {
	x.buf, x.nchunk, x.scan = b, 0, false
	if x.names == nil {
		x.names = make(map[uint32]uint16)
	} else {
		clear(x.names)
	}
	x.extend(data)
}

// extend indexes the chunks of data past those already indexed.
func (x *dirIndex) extend(data []byte) {
	for ; x.nchunk < len(data)/DirChunk; x.nchunk++ {
		x.walk(data, x.nchunk, true)
	}
}

// walk visits chunk c of data as the scans do, recording its entry count and
// largest free space and, with enter, entering its live names.
func (x *dirIndex) walk(data []byte, c int, enter bool) {
	le := binary.LittleEndian
	end := (c + 1) * DirChunk
	n, span := 0, 0
	for off := c * DirChunk; off < end; {
		reclen := int(le.Uint16(data[off+4:]))
		if reclen <= 0 {
			break // corrupt; fsck's problem
		}
		n++
		free := reclen
		if le.Uint32(data[off:]) != 0 {
			namelen := int(data[off+6])
			free -= entrySpace(namelen)
			if off+reclen > end || off+direntHdr+namelen > end {
				x.scan = true
			} else if enter && !x.scan {
				x.enter(nameHash(data[off+direntHdr:off+direntHdr+namelen]), off)
			}
		} else if off+reclen > end {
			x.scan = true
		}
		span = max(span, free)
		off += reclen
	}
	x.counts[c], x.spans[c] = uint16(n), uint16(span)
}

// find is findEntry(data, name) for the indexed block: the entry, whether it
// was found, and the number of entries the scan visits.
func (x *dirIndex) find(data []byte, name string) (Dirent, bool, int) {
	if x.scan {
		return findEntry(data, name)
	}
	scanned := 0
	at, ok := x.names[nameHash(name)]
	off := int(at)
	if !ok || string(entryName(data, off)) != name {
		for _, n := range x.counts[:x.nchunk] {
			scanned += int(n)
		}
		return Dirent{}, false, scanned
	}
	c := off / DirChunk
	for _, n := range x.counts[:c] {
		scanned += int(n)
	}
	for e := c * DirChunk; e < off; e += int(binary.LittleEndian.Uint16(data[e+4:])) {
		scanned++
	}
	return readDirent(data, off, name), true, scanned + 1
}

// add is addEntryInData(data, name, ino, ftype) for the indexed block: the
// scan's first fit lies in the first chunk whose free span fits, so that
// chunk alone is walked.
func (x *dirIndex) add(data []byte, name string, ino Ino, ftype uint8) (int, bool) {
	if x.scan {
		off, ok := addEntryInData(data, name, ino, ftype)
		x.build(x.buf, data)
		return off, ok
	}
	need := entrySpace(len(name))
	for c := range x.counts[:x.nchunk] {
		if int(x.spans[c]) < need {
			continue
		}
		off, ok := addEntryInChunk(data, c*DirChunk, name, ino, ftype)
		if !ok {
			panic("ffs: directory index out of step with its block")
		}
		x.walk(data, c, false)
		x.enter(nameHash(name), off)
		return off, true
	}
	return 0, false
}

// enter records the offset of a live name with hash h; a second name with
// that hash sends the block to the scans.
func (x *dirIndex) enter(h uint32, off int) {
	if _, dup := x.names[h]; dup {
		x.scan = true
	} else {
		x.names[h] = uint16(off)
	}
}

// entryName returns the name bytes of the entry at off.
func entryName(data []byte, off int) []byte {
	return data[off+direntHdr : off+direntHdr+int(data[off+6])]
}

// nameHash is the 32-bit FNV-1a hash of a name.
func nameHash[T string | []byte](name T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}
