package ffs

import (
	"fmt"
	"maps"
	"slices"

	"metaupdate/internal/sim"
)

// InodeLockedBy reports whether p holds ino's lock.
func (fs *FS) InodeLockedBy(p *sim.Proc, ino Ino) bool { return fs.inode(ino).lock.HeldBy(p) }

// indexDrift reports how x differs from an index rebuilt from the bytes of
// the buffer it is bound to, "" when it does not.
func indexDrift(x *dirIndex) string {
	var fresh dirIndex
	fresh.build(x.buf, x.buf.Data[:x.nchunk*DirChunk])
	n := x.nchunk
	switch {
	case fresh.nchunk != n:
		return fmt.Sprintf("%d chunks indexed, %d in a rebuild", n, fresh.nchunk)
	case !slices.Equal(x.counts[:n], fresh.counts[:n]):
		return fmt.Sprintf("chunk entry counts %v, %v in a rebuild", x.counts[:n], fresh.counts[:n])
	case !slices.Equal(x.spans[:n], fresh.spans[:n]):
		return fmt.Sprintf("chunk free spans %v, %v in a rebuild", x.spans[:n], fresh.spans[:n])
	case x.scan != fresh.scan:
		return fmt.Sprintf("answered by the scans %v, %v in a rebuild", x.scan, fresh.scan)
	case !x.scan && !maps.Equal(x.names, fresh.names):
		return fmt.Sprintf("%d names, %d in a rebuild (or at other offsets)", len(x.names), len(fresh.names))
	}
	return ""
}

// CheckDirIndexes rebuilds every directory block index from the buffer it
// is bound to and compares the two. It returns the number of indexes
// checked and the first difference found. An index bound to a buffer no
// longer resident at its address is not checked: its next use rebuilds it
// (dirIndexes.of), and the buffer's storage may be back in the cache's pool.
func (fs *FS) CheckDirIndexes() (int, error) {
	n := 0
	for k, x := range fs.dirIdx {
		if fs.cache.Lookup(k.frag) != x.buf {
			continue
		}
		if d := indexDrift(x); d != "" {
			return 0, fmt.Errorf("directory %d, block at fragment %d: %s", k.dir, k.frag, d)
		}
		n++
	}
	return n, nil
}
