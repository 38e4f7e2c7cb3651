package ordering

import (
	"sort"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// NVRAM is the paper's first "future work" comparison point (section 7):
// protecting metadata integrity with battery-backed non-volatile RAM
// instead of update ordering.
//
// The scheme runs all file system updates as delayed writes (like No
// Order), but at every point where the ordering rules would have demanded
// a sequenced disk write, it instead appends the affected buffer's current
// image to an NVRAM log. The log record is retired when the buffer's
// delayed write eventually reaches the disk. After a crash, Replay applies
// the surviving log records over the media image, reconstructing exactly
// the states the ordering rules care about — so integrity matches the
// ordered schemes while the performance matches the delayed-write
// baseline, minus the cost of copying into NVRAM and the backpressure of a
// finite log ("...can greatly increase data persistence and provide slight
// performance improvements as compared to soft updates... but is very
// expensive").
//
// It is the sequenced-write protocol with every ordered write, and the
// last write of a series, replaced by a log append. The log models the
// NVRAM device: bounded capacity, instantaneous persistence
// (battery-backed RAM), byte-copy cost charged to the CPU.
type NVRAM struct {
	Sequenced

	Cap int // bytes of NVRAM available for record payloads (default 1 MB)

	used    int
	nextSeq uint64
	// records per fragment: only the newest record per buffer matters for
	// replay, but retirement needs issue-time snapshots, so all live
	// records are kept until their buffer reaches the disk.
	records map[int64][]*nvRecord

	// Stats.
	Appends  int64
	PeakUsed int
}

// nvRecord is one logged buffer image.
type nvRecord struct {
	seq  uint64
	frag int64
	data []byte
}

// defaultCap is 1 MB of NVRAM — a realistically priced 1994 part.
const defaultCap = 1 << 20

// copyPerKB is the CPU cost of copying one KB into NVRAM: uncached writes
// across the bus.
const copyPerKB = 40 * sim.Microsecond

// NewNVRAM returns an NVRAM scheme over an empty 1 MB log.
func NewNVRAM() *NVRAM {
	s := &NVRAM{Cap: defaultCap, records: make(map[int64][]*nvRecord)}
	s.Sequenced = newSequenced(s.stable, s.stable)
	return s
}

// WriteDone implements cache.Hooks: the buffer's (at least as new) state is
// on disk; its log records are no longer needed.
func (s *NVRAM) WriteDone(b *cache.Buf, r *dev.Request) { s.retire(b.Frag) }

// stable logs the buffer to NVRAM and leaves the disk write delayed.
func (s *NVRAM) stable(p *sim.Proc, b *cache.Buf) {
	s.fs.Cache().Bdwrite(b)
	s.append(p, b)
}

// append logs the buffer's current image, blocking p while the log is full
// (NVRAM backpressure: somebody must flush buffers to retire records).
func (s *NVRAM) append(p *sim.Proc, b *cache.Buf) {
	for s.used+len(b.Data) > s.Cap {
		// Force the oldest logged buffers out to disk to make room.
		s.flushOldest(p)
	}
	if cpu := s.fs.CPU(); cpu != nil && p != nil {
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageCPU)
		cpu.Use(p, copyPerKB*sim.Duration((len(b.Data)+1023)/1024))
		sp.Pop(p)
	}
	s.nextSeq++
	rec := &nvRecord{seq: s.nextSeq, frag: b.Frag, data: append([]byte(nil), b.Data...)}
	s.records[b.Frag] = append(s.records[b.Frag], rec)
	s.used += len(rec.data)
	s.Appends++
	if s.used > s.PeakUsed {
		s.PeakUsed = s.used
	}
}

// flushOldest writes the buffer with the oldest live record synchronously,
// retiring its records.
func (s *NVRAM) flushOldest(p *sim.Proc) {
	var oldest *nvRecord
	for _, recs := range s.records {
		if len(recs) > 0 && (oldest == nil || recs[0].seq < oldest.seq) {
			oldest = recs[0]
		}
	}
	if oldest == nil {
		return
	}
	c := s.fs.Cache()
	b := c.Lookup(oldest.frag)
	if b == nil {
		// Buffer already gone (freed); the on-disk state is whatever the
		// ordering no longer cares about — retire the records.
		s.retire(oldest.frag)
		return
	}
	c.Bdwrite(b)
	c.Bwrite(p, b)
	// WriteDone hook retires the records.
}

// retire drops all records for frag.
func (s *NVRAM) retire(frag int64) {
	for _, r := range s.records[frag] {
		s.used -= len(r.data)
	}
	delete(s.records, frag)
}

// Replay applies the surviving records, oldest first, onto a crashed media
// image — the recovery step that runs from NVRAM before fsck.
func (s *NVRAM) Replay(img []byte) int {
	var all []*nvRecord
	for _, recs := range s.records {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, r := range all {
		copy(img[r.frag*ffs.FragSize:], r.data)
	}
	return len(all)
}
