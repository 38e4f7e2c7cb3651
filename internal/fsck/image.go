package fsck

import "metaupdate/internal/ffs"

// Image is a read-only view of a raw file-system image. It lets callers
// hand the checker virtual images — crashmc's copy-on-write overlays
// (committed base + per-sector write deltas) — without materializing a
// full media-sized byte slice per candidate.
//
// Range returns a view of bytes [off, off+n). Implementations may serve
// dirty regions from reused scratch buffers, so a view is only guaranteed
// valid until the caller's fourth subsequent Range call; the checker holds
// at most two views at once. Callers must treat views as immutable.
type Image interface {
	Len() int64
	Range(off, n int64) []byte
}

// sectorSize is the granularity of DeltaImage dirty tracking. It equals
// disk.SectorSize; fsck keeps its own copy so the package depends only on
// the ffs layout (ffs.DirChunk — one directory chunk per sector — pins the
// same value).
const sectorSize = ffs.DirChunk

// DeltaImage is an Image assembled from an immutable base plus a sparse
// set of dirtied sectors — crashmc's copy-on-write crash-candidate
// overlays. The incremental checker (see Baseline) uses the dirty-sector
// set to re-derive only state whose backing sectors changed, splicing
// cached results for the untouched remainder.
type DeltaImage interface {
	Image
	// Base returns the underlying unmodified image. It must be identical
	// (same bytes) to the image the Baseline was built from.
	Base() Image
	// DirtySectors returns the sectors (units of sectorSize bytes, offset
	// sector*sectorSize) at which the delta may differ from the base, in
	// any order, without duplicates. Sectors not listed must read exactly
	// as the base. The slice is valid until the image is modified.
	DirtySectors() []int64
}

// Bytes adapts a materialized image to Image. Views alias the slice
// directly and remain valid indefinitely; Range is safe for concurrent
// use.
type Bytes []byte

// Len implements Image.
func (b Bytes) Len() int64 { return int64(len(b)) }

// Range implements Image.
func (b Bytes) Range(off, n int64) []byte { return b[off : off+n] }

// Materialize copies img into a fresh mutable byte slice. DeltaImages are
// materialized delta-aware: one copy of the base plus the dirty sectors,
// instead of a Range walk over the whole media.
func Materialize(img Image) []byte {
	n := img.Len()
	out := make([]byte, n)
	if d, ok := img.(DeltaImage); ok {
		base := d.Base()
		copyImage(out, base)
		for _, s := range d.DirtySectors() {
			off := s * sectorSize
			copy(out[off:off+sectorSize], d.Range(off, sectorSize))
		}
		return out
	}
	copyImage(out, img)
	return out
}

func copyImage(dst []byte, img Image) {
	const chunk = 1 << 20
	n := img.Len()
	for off := int64(0); off < n; off += chunk {
		m := n - off
		if m > chunk {
			m = chunk
		}
		copy(dst[off:], img.Range(off, m))
	}
}
