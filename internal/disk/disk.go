// Package disk models an HP C2447-class 3.5-inch 1 GB SCSI disk drive — the
// drive used in the paper's experiments — at the level of detail the
// benchmarks are sensitive to: seek distance, rotational position, media
// transfer rate, controller overhead, and an on-board read-ahead cache that
// makes sequential reads cheap.
//
// The model is passive: the device driver (package dev) asks for the service
// time of an access, schedules the completion in virtual time, and moves the
// data when the completion fires. Writes are sector-atomic, which is the
// paper's stated assumption ("each disk sector is protected by error
// correcting codes...") and is what the crash-injection machinery relies on:
// a write interrupted mid-transfer has committed an exact prefix of its
// sectors.
package disk

import (
	"fmt"
	"math"

	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// SectorSize is the fixed sector size in bytes.
const SectorSize = 512

// Params describes the mechanical and cache characteristics of the drive.
type Params struct {
	Cylinders       int     // seek distance domain
	Heads           int     // tracks per cylinder
	SectorsPerTrack int     // sectors per track (non-zoned simplification)
	RPM             float64 // spindle speed

	// Seek time model: 0 for distance 0, otherwise
	// SeekBase + SeekFactor*sqrt(distance) milliseconds, capped at SeekMax.
	SeekBaseMS   float64
	SeekFactorMS float64
	SeekMaxMS    float64

	CmdOverhead sim.Duration // per-command controller/SCSI overhead
	BusPerByte  sim.Duration // SCSI bus transfer time per byte

	// Read-ahead cache: after each media read the drive keeps reading
	// sequentially into a segment of this many sectors.
	PrefetchSectors int
}

// HPC2447 returns parameters approximating the paper's HP C2447 drive
// (1 GB, 3.5-inch, 5400 RPM SCSI-2; see the HP C2244/45/46/47 technical
// reference the paper cites). Exact numbers are unavailable offline, so
// these are drawn from the published class of the drive: ~10 ms average
// seek, 5400 RPM, ~2.3 MB/s media rate, 10 MB/s bus, 256 KB cache.
func HPC2447() Params {
	return Params{
		Cylinders:       3240,
		Heads:           9,
		SectorsPerTrack: 72,
		RPM:             5400,
		SeekBaseMS:      2.0,
		SeekFactorMS:    0.24,
		SeekMaxMS:       18.0,
		CmdOverhead:     700 * sim.Microsecond,
		BusPerByte:      sim.Duration(float64(sim.Second) / 10e6),
		PrefetchSectors: 512, // 256 KB
	}
}

// Capacity returns the drive capacity in bytes.
func (p Params) Capacity() int64 {
	return int64(p.Cylinders) * int64(p.Heads) * int64(p.SectorsPerTrack) * SectorSize
}

// RevTime returns the time for one spindle revolution.
func (p Params) RevTime() sim.Duration {
	return sim.Duration(60.0 / p.RPM * float64(sim.Second))
}

// Op distinguishes reads from writes.
type Op int

// Access operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Access describes the timing decomposition of one serviced request, so the
// driver can schedule the completion and, for crash injection, work out how
// many sectors a half-finished write had committed.
type Access struct {
	Service     sim.Duration // total: overhead + positioning + transfer
	Positioning sim.Duration // overhead + seek + rotational latency
	PerSector   sim.Duration // media (or bus, for cache hits) time per sector
	CacheHit    bool         // read fully satisfied from the read-ahead segment

	// Fault is the injected outcome of this access (fault.None on a
	// fault-free disk). The driver inspects it when the completion fires:
	// anything but None/Latency means the command failed and Service already
	// reflects where the transfer stopped.
	Fault fault.Outcome
}

// chunkBytes is the granularity of lazy media materialization. The harness
// creates hundreds of Systems per sweep, each with a media limit in the
// hundreds of megabytes but a working set of a few megabytes; allocating
// (and zeroing) the full limit up front dominated whole-suite CPU time, so
// media chunks come into existence only when first written.
const chunkBytes = 1 << 20

// Disk is the drive model plus its media contents.
type Disk struct {
	P    Params
	size int64 // materialized media bytes (whole sectors)
	// chunks holds the media in chunkBytes pieces; a nil chunk reads as
	// zeros and is allocated on first write. After Image() flattens the
	// media, every chunk aliases a window of the flat slice, so chunk
	// writes and the returned image stay coherent.
	chunks [][]byte
	flat   []byte // non-nil once Image has flattened the media

	headCyl int // current cylinder

	// Read-ahead segment: sectors [preStart, preEnd) were (or are being)
	// read into the on-board cache starting at preTime, one PerSector each.
	preStart, preEnd int64
	preTime          sim.Time
	mediaPerSector   sim.Duration

	// Fault injection: faults is consulted on every media access; remapped
	// holds the per-disk bad-sector remap table (sectors rewritten to the
	// spare pool after a write hit a permanent bad sector), bounded by
	// spares. Remapped sectors keep their logical address — the media image
	// stays indexed by LBN — but accesses touching them pay remapPenalty
	// for the head excursion to the spare area.
	faults       fault.Judge
	remapped     map[int64]struct{}
	spares       int
	remapPenalty sim.Duration

	// Stats for the experiment harness.
	Reads, Writes  int64
	SectorsRead    int64
	SectorsWritten int64
	BusyTime       sim.Duration
	Remaps         int64 // sectors remapped to spares
}

// New returns a disk with the given parameters and zeroed media. Only
// `sizeLimit` bytes of media are addressable (the file systems in this
// repository use far less than the full 1 GB); accesses past the limit
// panic, which always indicates an addressing bug. Media is materialized
// lazily in chunkBytes pieces, so an untouched region costs nothing.
func New(p Params, sizeLimit int64) *Disk {
	if sizeLimit <= 0 || sizeLimit > p.Capacity() {
		sizeLimit = p.Capacity()
	}
	// Round up to a whole sector.
	sizeLimit = (sizeLimit + SectorSize - 1) / SectorSize * SectorSize
	return &Disk{
		P:              p,
		size:           sizeLimit,
		chunks:         make([][]byte, (sizeLimit+chunkBytes-1)/chunkBytes),
		mediaPerSector: sim.Duration(int64(p.RevTime()) / int64(p.SectorsPerTrack)),
		preStart:       -1,
		preEnd:         -1,
	}
}

// Sectors returns the number of addressable sectors.
func (d *Disk) Sectors() int64 { return d.size / SectorSize }

// SetFaults installs a fault judge (nil removes it) and sizes the spare
// pool for bad-sector remapping. spares <= 0 selects DefaultSpareSectors.
func (d *Disk) SetFaults(j fault.Judge, spares int) {
	if spares <= 0 {
		spares = DefaultSpareSectors
	}
	d.faults = j
	d.spares = spares
	d.remapped = make(map[int64]struct{})
	d.remapPenalty = d.P.RevTime() // one extra revolution reaching the spare area
}

// DefaultSpareSectors is the default bad-sector spare pool size.
const DefaultSpareSectors = 64

// IsRemapped reports whether sector lbn has been remapped to a spare.
func (d *Disk) IsRemapped(lbn int64) bool {
	_, ok := d.remapped[lbn]
	return ok
}

// Remap moves sector lbn to the spare pool, reporting false when the pool
// is exhausted. The driver calls it after a write hit a permanent bad
// sector; from then on the sector reads and writes normally (at its logical
// address — the media image is unchanged) with a per-access penalty.
func (d *Disk) Remap(lbn int64) bool {
	if d.remapped == nil || len(d.remapped) >= d.spares {
		return false
	}
	d.remapped[lbn] = struct{}{}
	d.Remaps++
	return true
}

// chunkLen returns the byte length of chunk i (the last chunk may be short).
func (d *Disk) chunkLen(i int64) int {
	if n := d.size - i*chunkBytes; n < chunkBytes {
		return int(n)
	}
	return chunkBytes
}

// writeAt copies p onto the media at byte offset off, materializing chunks
// as needed.
func (d *Disk) writeAt(off int64, p []byte) {
	if off < 0 || off+int64(len(p)) > d.size {
		panic(fmt.Sprintf("disk: write [%d,%d) outside media [0,%d)", off, off+int64(len(p)), d.size))
	}
	for len(p) > 0 {
		ci, co := off/chunkBytes, off%chunkBytes
		c := d.chunks[ci]
		if c == nil {
			c = make([]byte, d.chunkLen(ci))
			d.chunks[ci] = c
		}
		n := copy(c[co:], p)
		p = p[n:]
		off += int64(n)
	}
}

// readAt fills buf from media byte offset off; unmaterialized chunks read
// as zeros.
func (d *Disk) readAt(off int64, buf []byte) {
	if off < 0 || off+int64(len(buf)) > d.size {
		panic(fmt.Sprintf("disk: read [%d,%d) outside media [0,%d)", off, off+int64(len(buf)), d.size))
	}
	for len(buf) > 0 {
		ci, co := off/chunkBytes, off%chunkBytes
		var n int
		if c := d.chunks[ci]; c == nil {
			n = d.chunkLen(ci) - int(co)
			if n > len(buf) {
				n = len(buf)
			}
			clear(buf[:n])
		} else {
			n = copy(buf, c[co:])
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// WriteAt copies buf onto the media at byte offset off, outside simulated
// time and with no sector-alignment requirement. It exists for mkfs-style
// initializers (ffs.Format) that would otherwise flatten the lazy media
// through Image just to poke a few kilobytes.
func (d *Disk) WriteAt(off int64, buf []byte) { d.writeAt(off, buf) }

func (d *Disk) cylOf(lbn int64) int {
	return int(lbn / int64(d.P.SectorsPerTrack*d.P.Heads))
}

func (d *Disk) seekTime(from, to int) sim.Duration {
	dist := to - from
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	ms := d.P.SeekBaseMS + d.P.SeekFactorMS*math.Sqrt(float64(dist))
	if ms > d.P.SeekMaxMS {
		ms = d.P.SeekMaxMS
	}
	return sim.Duration(ms * float64(sim.Millisecond))
}

// rotationalLatency returns the wait from t until the head is over the start
// of sector lbn, assuming continuous rotation with all tracks aligned.
func (d *Disk) rotationalLatency(t sim.Time, lbn int64) sim.Duration {
	rev := int64(d.P.RevTime())
	sector := lbn % int64(d.P.SectorsPerTrack)
	target := sector * int64(d.mediaPerSector) % rev
	pos := int64(t) % rev
	wait := target - pos
	if wait < 0 {
		wait += rev
	}
	return sim.Duration(wait)
}

// Plan computes the service timing of an access beginning at virtual time
// `now`, updating head and cache state. The caller is responsible for
// scheduling the completion and then calling Commit (writes) or ReadAt
// (reads) when it fires.
func (d *Disk) Plan(now sim.Time, op Op, lbn int64, count int) Access {
	if count <= 0 {
		panic("disk: access with non-positive sector count")
	}
	if lbn < 0 || lbn+int64(count) > d.Sectors() {
		panic(fmt.Sprintf("disk: access [%d,%d) outside materialized media [0,%d)", lbn, lbn+int64(count), d.Sectors()))
	}

	if op == Read {
		d.Reads++
		d.SectorsRead += int64(count)
	} else {
		d.Writes++
		d.SectorsWritten += int64(count)
	}

	// Read fully inside the read-ahead segment: no mechanical motion, just
	// controller overhead, a possible wait for the read-ahead to catch up,
	// and the bus transfer.
	if op == Read && d.preStart >= 0 && lbn >= d.preStart && lbn+int64(count) <= d.preEnd {
		avail := d.preTime + sim.Duration(lbn+int64(count)-d.preStart)*d.mediaPerSector
		wait := avail - now
		if wait < 0 {
			wait = 0
		}
		bus := sim.Duration(count*SectorSize) * d.P.BusPerByte
		acc := Access{
			Service:     d.P.CmdOverhead + wait + bus,
			Positioning: d.P.CmdOverhead + wait,
			PerSector:   sim.Duration(SectorSize) * d.P.BusPerByte,
			CacheHit:    true,
		}
		d.BusyTime += acc.Service
		return acc
	}

	cyl := d.cylOf(lbn)
	seek := d.seekTime(d.headCyl, cyl)
	d.headCyl = cyl
	rot := d.rotationalLatency(now+d.P.CmdOverhead+seek, lbn)
	transfer := sim.Duration(count) * d.mediaPerSector
	acc := Access{
		Service:     d.P.CmdOverhead + seek + rot + transfer,
		Positioning: d.P.CmdOverhead + seek + rot,
		PerSector:   d.mediaPerSector,
	}
	d.applyFaults(&acc, op, lbn, count)
	d.BusyTime += acc.Service

	failed := acc.Fault.Kind == fault.Transient || acc.Fault.Kind == fault.BadSector
	if op == Read {
		if failed {
			// A failed read leaves no trustworthy read-ahead segment.
			d.preStart, d.preEnd = -1, -1
		} else {
			// The drive keeps reading ahead into its segment after the
			// request's last sector.
			d.preStart = lbn
			d.preEnd = lbn + int64(count) + int64(d.P.PrefetchSectors)
			if d.preEnd > d.Sectors() {
				d.preEnd = d.Sectors()
			}
			d.preTime = now + acc.Positioning
		}
	} else {
		// Writes invalidate any overlapping cached read-ahead data.
		if d.preStart >= 0 && lbn < d.preEnd && lbn+int64(count) > d.preStart {
			d.preStart, d.preEnd = -1, -1
		}
	}
	return acc
}

// applyFaults judges the access against the installed fault plan and folds
// the outcome into the timing: a latency spike extends the transfer; a
// transient error aborts the command during positioning (nothing reaches
// the media); a torn write or a bad sector stops the transfer at the
// offending point, so Service covers exactly the sectors that made it. The
// read-ahead hit path never gets here — cache hits do not touch the media.
//
// Accesses that touch remapped sectors pay one extra revolution per such
// sector for the excursion to the spare area — the graceful-degradation
// cost of remapping.
func (d *Disk) applyFaults(acc *Access, op Op, lbn int64, count int) {
	if d.faults == nil {
		return
	}
	if len(d.remapped) > 0 {
		for s := lbn; s < lbn+int64(count); s++ {
			if _, ok := d.remapped[s]; ok {
				acc.Service += d.remapPenalty
				acc.Positioning += d.remapPenalty
			}
		}
	}
	out := d.faults.Judge(op == Write, lbn, count, d.IsRemapped)
	if out.Kind == fault.None {
		return
	}
	switch out.Kind {
	case fault.Latency:
		acc.Service += out.Extra
	case fault.Transient:
		// Command aborted before the transfer started.
		acc.Service = acc.Positioning
	case fault.Torn, fault.BadSector:
		done := out.TornSectors
		if done > count {
			done = count
		}
		acc.Service = acc.Positioning + acc.PerSector*sim.Duration(done)
	}
	acc.Fault = out
}

// Commit copies data for a completed write onto the media. len(data) must be
// a whole number of sectors.
func (d *Disk) Commit(lbn int64, data []byte) {
	if len(data)%SectorSize != 0 {
		panic("disk: write not sector-aligned")
	}
	d.writeAt(lbn*SectorSize, data)
}

// CommitPrefix applies only the first n sectors of a write — the crash case.
func (d *Disk) CommitPrefix(lbn int64, data []byte, n int) {
	if n < 0 {
		n = 0
	}
	if max := len(data) / SectorSize; n > max {
		n = max
	}
	d.writeAt(lbn*SectorSize, data[:n*SectorSize])
}

// ReadAt copies count sectors starting at lbn into buf.
func (d *Disk) ReadAt(lbn int64, buf []byte) {
	d.readAt(lbn*SectorSize, buf)
}

// Image returns the raw media contents, NOT a copy: the returned slice
// aliases the live media, so any later simulated write — including the
// sector-prefix commits of Driver.Crash — mutates it in place. It exists
// for read-only inspection of a halted simulation. Anything that captures
// a crash image for later analysis while the system may still move
// (fsim.System.Crash, the crash tests, the crashmc base snapshot) must use
// CloneImage instead.
//
// The first call flattens the lazily-chunked media into one contiguous
// slice and re-points every chunk into it, so the aliasing guarantee holds
// across later writes; the flattening cost (size-of-media allocation) is
// paid only by callers that need the raw image.
func (d *Disk) Image() []byte {
	if d.flat == nil {
		flat := make([]byte, d.size)
		for i, c := range d.chunks {
			if c != nil {
				copy(flat[int64(i)*chunkBytes:], c)
			}
		}
		for i := range d.chunks {
			lo := int64(i) * chunkBytes
			hi := lo + int64(d.chunkLen(int64(i)))
			d.chunks[i] = flat[lo:hi:hi]
		}
		d.flat = flat
	}
	return d.flat
}

// CloneImage returns an independent copy of the media — the required form
// for crash images and before/after comparisons (see Image for the
// aliasing hazard it avoids).
func (d *Disk) CloneImage() []byte {
	c := make([]byte, d.size)
	for i, ch := range d.chunks {
		if ch != nil {
			copy(c[int64(i)*chunkBytes:], ch)
		}
	}
	return c
}
