package crashmc

import (
	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
)

// overlay is a copy-on-write crash image: the worker's committed image of
// the instant plus a per-sector delta holding the contents the
// hypothesized-durable writes would have left on the media. It implements
// fsck.DeltaImage, so a checker worker pays per candidate for the
// candidate's delta — not for a media-sized copy, which dominated the
// pool's cost when images were materialized per job — and the incremental
// checker can re-verify only the state the delta's dirty sectors reach.
//
// The delta is sector-indexed dense state, not a map: Range tests every
// sector it crosses, and map hashing there dominated sweep profiles. mark
// is a generation stamp (== cur means view[s] holds this candidate's
// content), so load never clears the arrays.
//
// Delta entries alias the recorder's write-source snapshots; nothing here
// is ever written, satisfying fsck.Image's read-only contract.
type overlay struct {
	base  []byte
	mark  []uint64 // sector -> generation; == cur means dirty
	view  [][]byte // sector -> one-sector view of the newest writer
	cur   uint64
	dirty []int64 // dirty sectors of the current candidate

	// scratch rotates the buffers backing dirty Range results.
	// fsck.Image's contract promises the last four views stay valid.
	scratch [4][]byte
	next    int
}

// load points the overlay at a job's crash state over img, the committed
// image of the job's instant. The delta is rebuilt in apply order — subset
// in submission order, then the partial's prefix — so overlapping writes
// resolve exactly as materializing them would.
func (o *overlay) load(j *job, img []byte) {
	o.base = img
	if nsec := int(int64(len(img)) / disk.SectorSize); len(o.mark) != nsec {
		o.mark = make([]uint64, nsec)
		o.view = make([][]byte, nsec)
	}
	o.cur++
	o.dirty = o.dirty[:0]
	for _, n := range j.subset {
		for i := 0; i < n.count; i++ {
			o.set(n.lbn+int64(i), n.data[i*disk.SectorSize:(i+1)*disk.SectorSize])
		}
	}
	if p := j.partial; p != nil {
		for i := 0; i < j.psec; i++ {
			o.set(p.lbn+int64(i), p.data[i*disk.SectorSize:(i+1)*disk.SectorSize])
		}
	}
}

func (o *overlay) set(s int64, view []byte) {
	if o.mark[s] != o.cur {
		o.mark[s] = o.cur
		o.dirty = append(o.dirty, s)
	}
	o.view[s] = view
}

// Len implements fsck.Image.
func (o *overlay) Len() int64 { return int64(len(o.base)) }

// Base implements fsck.DeltaImage.
func (o *overlay) Base() fsck.Image { return fsck.Bytes(o.base) }

// DirtySectors implements fsck.DeltaImage. The slice is valid until the
// next load.
func (o *overlay) DirtySectors() []int64 { return o.dirty }

// Range implements fsck.Image. Ranges free of dirty sectors alias the base
// snapshot; ranges touching the delta are assembled in a rotating scratch
// buffer.
func (o *overlay) Range(off, n int64) []byte {
	if n <= 0 {
		return nil
	}
	lo := off / disk.SectorSize
	hi := (off + n - 1) / disk.SectorSize
	if lo == hi && o.mark[lo] == o.cur {
		// Entirely inside one dirty sector: alias the writer's view.
		rel := off - lo*disk.SectorSize
		return o.view[lo][rel : rel+n]
	}
	dirty := false
	for s := lo; s <= hi; s++ {
		if o.mark[s] == o.cur {
			dirty = true
			break
		}
	}
	if !dirty {
		return o.base[off : off+n]
	}
	buf := o.grab(int(n))
	copy(buf, o.base[off:off+n])
	for s := lo; s <= hi; s++ {
		if o.mark[s] != o.cur {
			continue
		}
		// Intersect the sector with [off, off+n); copy bounds the tail.
		src, dst := int64(0), s*disk.SectorSize-off
		if dst < 0 {
			src, dst = -dst, 0
		}
		copy(buf[dst:], o.view[s][src:])
	}
	return buf
}

func (o *overlay) grab(n int) []byte {
	i := o.next
	o.next = (o.next + 1) % len(o.scratch)
	if cap(o.scratch[i]) < n {
		o.scratch[i] = make([]byte, n)
	}
	o.scratch[i] = o.scratch[i][:n]
	return o.scratch[i]
}
