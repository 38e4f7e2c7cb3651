// Package crashmc is a crash-consistency model checker: it turns the
// repository's one-shot crash injection (dev.Driver.Crash at a single
// instant) into bounded-exhaustive exploration of the crash-state space.
//
// A Recorder attaches to the device driver as a dev.Observer and records
// the write timeline of a workload run: every submitted request with its
// write source and the barrier set the driver will enforce, and every
// completion batch, in virtual-time order. After the run, Explore
// enumerates the crash images that timeline could have left on the media:
//
//   - every inter-event crash instant (the image after any prefix of the
//     completion sequence);
//   - at each instant, every completed-subset of the then-pending writes
//     that the scheme's ordering semantics permit — a subset is legal iff
//     it is closed under the driver's barrier relation (dev.Predecessors),
//     with chains of read requests collapsed to their write ancestors. The
//     driver reports the edges it wired, a subset of that relation with the
//     same closure over the pending set, hence the same closed subsets;
//   - for each write that could legally have been in flight, every
//     partial-sector prefix (writes are sector-atomic, the paper's stated
//     assumption).
//
// Crash states are deduplicated up front by an incrementally-maintained
// per-sector content signature, then handed to a worker pool by name — the
// prefix of the completion order that makes up the instant's committed
// image, plus the pending writes hypothesized durable. Each worker rolls one
// private image forward along that order, lays the hypothesized writes over
// it as a copy-on-write overlay, and verifies the result through
// fsck.CheckImage (plus, optionally, fsck.ContentViolationsImage): neither
// an instant nor a candidate costs a media-sized copy. A scheme that needs
// recovery run on the image first (Config.Recover) recovers each candidate
// in one worker-owned image and is checked by the sectors recovery left
// different from the committed image.
// Real goroutine parallelism is safe here because image checking happens
// entirely outside the deterministic simulation. Any violating image can
// be shrunk to a minimal repro: the smallest dependency-closed write
// subset that still violates, naming the offending requests.
//
// The exploration is sound but bounded: it reorders only the writes the
// run actually issued (with their recorded contents), so schemes whose
// completion handlers would have issued different writes under a different
// completion order are checked against the recorded schedule's contents.
// This is the standard trace-based approach (compare SquirrelFS's
// model-checked crash states and pFSCK's parallel checking, PAPERS.md).
package crashmc

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// node is one recorded request.
type node struct {
	id uint64
	// ord is the node's ordinal in its recording (submission order): the
	// index an Explore's dense per-node scratch is kept under. Immutable,
	// like everything here — a Recorder's nodes are shared by every Explore.
	ord   int
	write bool
	lbn   int64
	count int    // sectors
	data  []byte // write source snapshot; nil for reads
	// sech[i] fingerprints the write's i-th sector. Successive writes to a
	// range often repeat bytes — per-sector content fingerprints let the
	// enumerator recognize the resulting duplicate images without
	// materializing them.
	sech []uint64
	// effPreds are the write IDs that must be durable before this request
	// may complete, as far as the driver wired them (the rest follow through
	// those writes' own effPreds while they are pending), with read-only
	// dependency chains collapsed (a write gated on a read inherits the
	// read's write ancestors). Sorted. predOrds names the same nodes by
	// ordinal.
	effPreds []uint64
	predOrds []int
}

// apply copies the write's full content onto img.
func (n *node) apply(img []byte) {
	copy(img[n.lbn*disk.SectorSize:], n.data)
}

// applyPrefix commits only the first sectors sectors (the mid-write crash).
func (n *node) applyPrefix(img []byte, sectors int) {
	copy(img[n.lbn*disk.SectorSize:], n.data[:sectors*disk.SectorSize])
}

// event is one timeline step: a submission, a completion batch, a torn
// batch prefix landing on the media, or a batch failing with an error.
type event struct {
	submit   uint64 // non-zero: ID of the submitted request
	complete []uint64
	// torn, when non-nil, lists a faulted write batch in transfer (LBN)
	// order; tornSec sectors of the batch landed before the fault. The
	// requests stay pending — the driver will retry or fail them later.
	torn    []uint64
	tornSec int
	// failed, when non-nil, lists requests that completed with an error:
	// nothing (beyond earlier torn prefixes) reached the media, and their
	// successors are no longer constrained by them.
	failed []uint64
}

// Recorder captures a driver's write timeline for later exploration.
// Attach it before the workload runs; it is not safe to explore while the
// simulation is still moving.
type Recorder struct {
	base   []byte
	nodes  map[uint64]*node
	events []event
	writes int
	torn   int          // BatchTorn events observed
	failed int          // requests that completed with an error
	hseed  maphash.Seed // content-fingerprint seed, one per recording
}

// Attach snapshots the disk's current media as the pre-workload base image
// and installs a fresh Recorder as drv's observer.
func Attach(drv *dev.Driver, dsk *disk.Disk) *Recorder {
	r := &Recorder{
		base:  dsk.CloneImage(),
		nodes: make(map[uint64]*node),
		hseed: maphash.MakeSeed(),
	}
	drv.SetObserver(r)
	return r
}

// RequestSubmitted implements dev.Observer.
func (r *Recorder) RequestSubmitted(q *dev.Request, preds []uint64) {
	n := &node{
		id:    q.ID,
		ord:   len(r.nodes),
		write: q.Op == disk.Write,
		lbn:   q.LBN,
		count: q.Count,
	}
	if n.write {
		n.data = append([]byte(nil), q.Data...)
		n.sech = make([]uint64, n.count)
		for s := 0; s < n.count; s++ {
			n.sech[s] = maphash.Bytes(r.hseed, n.data[s*disk.SectorSize:(s+1)*disk.SectorSize])
		}
		r.writes++
	}
	// Collapse read chains: a predecessor that is itself a read
	// contributes its own write ancestors instead. Predecessors that
	// predate the recorder are already durable and drop out.
	seen := make(map[uint64]struct{})
	for _, p := range preds {
		pn := r.nodes[p]
		if pn == nil {
			continue
		}
		if pn.write {
			seen[p] = struct{}{}
			continue
		}
		for _, wp := range pn.effPreds {
			seen[wp] = struct{}{}
		}
	}
	n.effPreds = make([]uint64, 0, len(seen))
	for id := range seen {
		n.effPreds = append(n.effPreds, id)
	}
	sort.Slice(n.effPreds, func(i, j int) bool { return n.effPreds[i] < n.effPreds[j] })
	n.predOrds = make([]int, len(n.effPreds))
	for i, id := range n.effPreds {
		n.predOrds[i] = r.nodes[id].ord
	}
	r.nodes[q.ID] = n
	r.events = append(r.events, event{submit: q.ID})
}

// RequestsCompleted implements dev.Observer.
func (r *Recorder) RequestsCompleted(ids []uint64, at sim.Time) {
	r.events = append(r.events, event{complete: append([]uint64(nil), ids...)})
}

// BatchTorn implements dev.FaultObserver: a faulted write batch committed
// its first sectors sectors (in transfer order) before stopping. The torn
// prefix is a new crash atom — the media changed while every request in
// the batch stays pending.
func (r *Recorder) BatchTorn(ids []uint64, sectors int, at sim.Time) {
	r.torn++
	r.events = append(r.events, event{torn: append([]uint64(nil), ids...), tornSec: sectors})
}

// RequestsFailed implements dev.FaultObserver: the requests gave up with an
// error. Their full contents never landed and they stop constraining their
// successors (the driver unblocks dependents of a failed request).
func (r *Recorder) RequestsFailed(ids []uint64, at sim.Time) {
	r.failed += len(ids)
	r.events = append(r.events, event{failed: append([]uint64(nil), ids...)})
}

// Instant reports the crash instant the recorded timeline stands at, as
// Explore will number it (0 is the pre-workload image; every event that
// can change the media or the pending set starts the next). Read it while
// the workload runs to mark a point in the timeline for Config.From.
func (r *Recorder) Instant() int {
	n := 0
	for _, ev := range r.events {
		if ev.submit == 0 || r.nodes[ev.submit].write {
			n++
		}
	}
	return n
}

// Config bounds and parameterizes an exploration.
type Config struct {
	// Workers sets the image-checking goroutine count (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// Budget caps the total crash states generated (default 50000).
	Budget int
	// From skips the crash states of the instants before it; the timeline
	// still plays from the start. It is how a predicate that holds only
	// from some point of the run on ("this file has been fsynced") is
	// checked, through ExtraCheck, over every state cut after that point.
	From int
	// PerInstant caps the states generated at any single crash instant,
	// so one huge pending set cannot starve the rest of the timeline
	// (default 1024).
	PerInstant int
	// ExtraCheck, if set, runs an additional oracle over each image; any
	// strings it returns are recorded as findings alongside fsck's. It is
	// called concurrently from the checker pool and must be safe for
	// concurrent use with distinct images. A content check over stamped
	// file data (fsck.ContentViolationsImage) is one.
	ExtraCheck func(fsck.Image) []string
	// Recover, if set, runs crash-time recovery on each crash image before
	// the fsck oracle (the Journaling scheme sets it to journal replay). It
	// gets a mutable media-sized image — the worker's committed image with
	// the candidate's writes laid over it — and may rewrite any of it: the
	// worker then compares every page with the committed image and checks
	// the sectors that differ as a delta against its Baseline, so the cost
	// per candidate is the recovery plus one scan of the image, not a full
	// fsck walk. A panic inside it is reported as the state's finding. It is
	// called concurrently on distinct images.
	Recover func([]byte)
	// Shrink reduces the lowest-sequence violating state to a minimal
	// repro after the sweep, materializing at most shrinkTrials images.
	Shrink bool
}

const (
	// maxViolations bounds the retained violating states; the lowest
	// sequence numbers are kept. The Violating counter is exact regardless.
	maxViolations = 64
	// shrinkTrials caps the images materialized while shrinking.
	shrinkTrials = 800
)

func (c *Config) setDefaults(defaultWorkers int) {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers
	}
	if c.Budget <= 0 {
		c.Budget = 50000
	}
	if c.PerInstant <= 0 {
		c.PerInstant = 1024
	}
}

// Stats counts an exploration, pFSCK-style: how much state space was
// covered and how fast the parallel checkers got through it.
type Stats struct {
	Requests int `json:"requests"`         // recorded requests (reads + writes)
	Writes   int `json:"writes"`           // recorded writes
	Instants int `json:"instants"`         // crash instants enumerated
	Torn     int `json:"torn,omitempty"`   // torn-batch events in the timeline
	Failed   int `json:"failed,omitempty"` // requests that errored out

	Explored  int64 `json:"explored"`  // crash states generated
	Deduped   int64 `json:"deduped"`   // states skipped as duplicate images
	Checked   int64 `json:"checked"`   // distinct images run through fsck
	Violating int64 `json:"violating"` // distinct images with rule violations

	// Each worker derives a Baseline of its committed image once and
	// advances it whenever the image moves: BaselineBuilds counts the full
	// derivations (one per worker, plus the advances that wrote the
	// superblock sector and so fell back to one), BaselineAdvances the
	// others. Both are summed over the workers, so with more than one
	// worker they depend on which worker drew which job.
	BaselineBuilds   int64 `json:"baseline_builds,omitempty"`
	BaselineAdvances int64 `json:"baseline_advances,omitempty"`

	ElapsedSec    float64 `json:"elapsed_sec"`     // wall-clock exploration time
	CheckedPerSec float64 `json:"checked_per_sec"` // fsck throughput
}

// FinalizeThroughput derives CheckedPerSec from Checked and ElapsedSec.
// Degenerate elapsed times (a tiny sweep whose wall clock rounds to zero)
// report 0 rather than +Inf or NaN — values encoding/json refuses to
// marshal, which used to turn `mdcheck -json` into an encode error.
func (s *Stats) FinalizeThroughput() {
	s.CheckedPerSec = 0
	if s.ElapsedSec > 0 {
		if r := float64(s.Checked) / s.ElapsedSec; !math.IsInf(r, 0) && !math.IsNaN(r) {
			s.CheckedPerSec = r
		}
	}
}

// WriteInfo describes one offending write in a violation or repro.
type WriteInfo struct {
	ID      uint64 `json:"id"`
	LBN     int64  `json:"lbn"`
	Sectors int    `json:"sectors"`
}

func (w WriteInfo) String() string {
	return fmt.Sprintf("write #%d [lbn %d, %d sectors]", w.ID, w.LBN, w.Sectors)
}

// Violation is one violating crash state.
type Violation struct {
	Seq int64 `json:"seq"` // generation sequence number (deterministic)
	// Instant is the crash instant's index into the event timeline.
	Instant int `json:"instant"`
	// Completed is the number of writes durably completed at the instant.
	Completed int `json:"completed"`
	// Applied lists the pending writes hypothesized complete.
	Applied []WriteInfo `json:"applied,omitempty"`
	// Partial, if non-nil, is the write caught mid-transfer with
	// PartialSectors sectors committed.
	Partial        *WriteInfo `json:"partial,omitempty"`
	PartialSectors int        `json:"partial_sectors,omitempty"`
	Findings       []string   `json:"findings"`
}

// Repro is a shrunk violation: the minimal dependency-closed write subset
// that still violates, named by request.
type Repro struct {
	Writes         []WriteInfo `json:"writes"`
	Partial        *WriteInfo  `json:"partial,omitempty"`
	PartialSectors int         `json:"partial_sectors,omitempty"`
	Findings       []string    `json:"findings"`
	Trials         int         `json:"trials"`
}

func (r *Repro) String() string {
	s := fmt.Sprintf("minimal repro: %d writes", len(r.Writes))
	for _, w := range r.Writes {
		s += "\n  " + w.String()
	}
	if r.Partial != nil {
		s += fmt.Sprintf("\n  %v cut at %d sectors", *r.Partial, r.PartialSectors)
	}
	for _, f := range r.Findings {
		s += "\n  => " + f
	}
	return s
}

// Result is the outcome of one exploration.
type Result struct {
	Stats      Stats       `json:"stats"`
	Violations []Violation `json:"violations,omitempty"`
	Repro      *Repro      `json:"repro,omitempty"`
}

// Clean reports whether no checked image violated an ordering rule.
func (r *Result) Clean() bool { return r.Stats.Violating == 0 }
