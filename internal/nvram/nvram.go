// Package nvram implements the paper's first "future work" comparison
// point (section 7): protecting metadata integrity with battery-backed
// non-volatile RAM instead of update ordering.
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
package nvram

import (
	"sort"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/obs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// Record is one logged buffer image.
type Record struct {
	Seq  uint64
	Frag int64
	Data []byte
}

// Log models the NVRAM device: bounded capacity, instantaneous persistence
// (battery-backed RAM), byte-copy cost charged to the CPU.
type Log struct {
	Cap int // bytes of NVRAM available for record payloads (default 1 MB)

	used    int
	nextSeq uint64
	// records per fragment: only the newest record per buffer matters for
	// replay, but retirement needs issue-time snapshots, so all live
	// records are kept until their buffer reaches the disk.
	records map[int64][]*Record

	// Stats.
	Appends  int64
	PeakUsed int
}

// defaultCap is 1 MB of NVRAM — a realistically priced 1994 part.
const defaultCap = 1 << 20

// copyPerKB is the CPU cost of copying one KB into NVRAM: uncached writes
// across the bus.
const copyPerKB = 40 * sim.Microsecond

// Used reports bytes currently held by live records.
func (l *Log) Used() int { return l.used }

// append logs the buffer's current image, blocking p while the log is full
// (NVRAM backpressure: somebody must flush buffers to retire records).
func (l *Log) append(p *sim.Proc, c *cache.Cache, cpu *sim.CPU, b *cache.Buf) {
	for l.used+len(b.Data) > l.Cap {
		// Force the oldest logged buffers out to disk to make room.
		l.flushOldest(p, c)
	}
	if cpu != nil && p != nil {
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageCPU)
		cpu.Use(p, copyPerKB*sim.Duration((len(b.Data)+1023)/1024))
		sp.Pop(p)
	}
	l.nextSeq++
	rec := &Record{Seq: l.nextSeq, Frag: b.Frag, Data: append([]byte(nil), b.Data...)}
	l.records[b.Frag] = append(l.records[b.Frag], rec)
	l.used += len(rec.Data)
	l.Appends++
	if l.used > l.PeakUsed {
		l.PeakUsed = l.used
	}
}

// flushOldest writes the buffer with the oldest live record synchronously,
// retiring its records.
func (l *Log) flushOldest(p *sim.Proc, c *cache.Cache) {
	var oldest *Record
	for _, recs := range l.records {
		if len(recs) > 0 && (oldest == nil || recs[0].Seq < oldest.Seq) {
			oldest = recs[0]
		}
	}
	if oldest == nil {
		return
	}
	b := c.Lookup(oldest.Frag)
	if b == nil {
		// Buffer already gone (freed); the on-disk state is whatever the
		// ordering no longer cares about — retire the records.
		l.retire(oldest.Frag)
		return
	}
	c.Bdwrite(b)
	c.Bwrite(p, b)
	// WriteDone hook retires the records.
}

// retire drops all records for frag.
func (l *Log) retire(frag int64) {
	for _, r := range l.records[frag] {
		l.used -= len(r.Data)
	}
	delete(l.records, frag)
}

// Replay applies the surviving records, oldest first, onto a crashed media
// image — the recovery step that runs from NVRAM before fsck.
func (l *Log) Replay(img []byte) int {
	var all []*Record
	for _, recs := range l.records {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	for _, r := range all {
		copy(img[r.Frag*ffs.FragSize:], r.Data)
	}
	return len(all)
}

// Scheme is the NVRAM-backed ordering implementation (ffs.Ordering): the
// sequenced-write protocol with every ordered write, and the last write of
// a series, replaced by a log append.
type Scheme struct {
	ordering.Sequenced
	log *Log
}

// New returns an NVRAM scheme over an empty 1 MB log.
func New() *Scheme {
	s := &Scheme{log: &Log{Cap: defaultCap, records: make(map[int64][]*Record)}}
	s.Sequenced = ordering.NewSequenced(s.stable, s.stable)
	return s
}

// Log exposes the underlying NVRAM log (for crash replay and stats).
func (s *Scheme) Log() *Log { return s.log }

// WriteDone implements cache.Hooks: the buffer's (at least as new) state is
// on disk; its log records are no longer needed.
func (s *Scheme) WriteDone(b *cache.Buf, r *dev.Request) { s.log.retire(b.Frag) }

// stable logs the buffer to NVRAM and leaves the disk write delayed.
func (s *Scheme) stable(p *sim.Proc, b *cache.Buf) {
	fs := s.FS()
	fs.Cache().Bdwrite(b)
	s.log.append(p, fs.Cache(), fs.CPU(), b)
}
