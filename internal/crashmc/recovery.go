package crashmc

import (
	"bytes"
	"fmt"

	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
)

// pageSize is the unit of recoveryImage's diff scan: a page is compared as
// a whole, and only a page that differs is compared sector by sector.
const pageSize = 4096

// zeroPage is what an all-zero committed page is compared against: one
// buffer that stays in cache, instead of a second page read from the
// committed image.
var zeroPage [pageSize]byte

// recoveryImage is a checker worker's mutable twin of its committed image,
// the one place Config.Recover runs. Between candidates it equals the
// committed image byte for byte. For a candidate, load writes the
// overlay's sectors into it, runs the recovery, and diffs the result back
// against the committed image over every page — Recover is opaque, so it
// may write anywhere — leaving the sectors that differ as a
// fsck.DeltaImage the worker's DeltaChecker replays against the Baseline
// it already advances. restore then copies back only those sectors.
//
// Pages that are all zero in the committed image (most of a young file
// system's data region) are tested against zeroPage; zero records which
// ones they are and is kept in step by sync.
type recoveryImage struct {
	com   []byte  // the committed image; aliases the worker's committedImage
	img   []byte  // com, plus the loaded candidate and its recovery
	zero  []bool  // page -> all zero in com
	dirty []int64 // sectors where img differs from com, ascending
}

func newRecoveryImage(com []byte) *recoveryImage {
	r := &recoveryImage{
		com:  com,
		img:  getImage(com),
		zero: make([]bool, (len(com)+pageSize-1)/pageSize),
	}
	for p := range r.zero {
		r.zero[p] = isZero(page(com, p))
	}
	return r
}

// page returns page p of b (the last page may be short).
func page(b []byte, p int) []byte {
	return b[p*pageSize : min((p+1)*pageSize, len(b))]
}

func isZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// sync follows a move of the committed image by the listed sectors
// (repeats allowed): img takes their new contents and zero is re-derived
// for the pages they lie in.
func (r *recoveryImage) sync(moved []int64) {
	for _, s := range moved {
		lo := s * disk.SectorSize
		copy(r.img[lo:lo+disk.SectorSize], r.com[lo:])
		p := int(lo / pageSize)
		r.zero[p] = isZero(page(r.com, p))
	}
}

// load lays ov's candidate over img, runs fn on it and diffs the result
// against the committed image. It returns a finding when fn panicked; img
// and the diff are left for restore either way.
func (r *recoveryImage) load(ov *overlay, fn func([]byte)) (finding string) {
	for _, s := range ov.dirty {
		copy(r.img[s*disk.SectorSize:], ov.view[s])
	}
	finding = runRecover(fn, r.img)
	r.diff()
	return finding
}

// diff lists in dirty every sector where img differs from com.
func (r *recoveryImage) diff() {
	r.dirty = r.dirty[:0]
	for p, z := range r.zero {
		got := page(r.img, p)
		if z && isZero(got) || !z && bytes.Equal(got, page(r.com, p)) {
			continue
		}
		for lo := p * pageSize; lo < p*pageSize+len(got); lo += disk.SectorSize {
			hi := lo + disk.SectorSize
			if !bytes.Equal(r.img[lo:hi], r.com[lo:hi]) {
				r.dirty = append(r.dirty, int64(lo/disk.SectorSize))
			}
		}
	}
}

// restore returns img to the committed image.
func (r *recoveryImage) restore() {
	for _, s := range r.dirty {
		lo := s * disk.SectorSize
		copy(r.img[lo:lo+disk.SectorSize], r.com[lo:])
	}
	r.dirty = r.dirty[:0]
}

// Len implements fsck.Image.
func (r *recoveryImage) Len() int64 { return int64(len(r.img)) }

// Range implements fsck.Image. Views alias img: valid until restore.
func (r *recoveryImage) Range(off, n int64) []byte { return r.img[off : off+n] }

// Base implements fsck.DeltaImage.
func (r *recoveryImage) Base() fsck.Image { return fsck.Bytes(r.com) }

// DirtySectors implements fsck.DeltaImage: exactly the sectors the
// recovered candidate changed, valid until restore.
func (r *recoveryImage) DirtySectors() []int64 { return r.dirty }

// runRecover runs a Config.Recover hook on img. A panic inside it (a
// recovery step led out of bounds by a crash state's bytes) is returned as
// a finding rather than killing the sweep, as checkImage does for fsck's.
func runRecover(fn func([]byte), img []byte) (finding string) {
	defer func() {
		if p := recover(); p != nil {
			finding = fmt.Sprintf("recovery panicked on image: %v", p)
		}
	}()
	fn(img)
	return ""
}
