// Package dev implements the instrumented device driver and disk scheduler
// from the paper's experimental apparatus (section 2) and the
// scheduler-enforced ordering machinery of section 3.
//
// The driver accepts asynchronous requests, keeps them in a queue, and
// dispatches them to the disk with C-LOOK scheduling, concatenating
// sequential requests the way the paper's SVR4 MP driver did. Ordering is
// expressed as a per-request *barrier set* computed at submission time:
//
//   - ModeIgnore: no ordering beyond conflicts (overlapping ranges never
//     reorder). Used by Conventional, Soft Updates and No Order, which
//     enforce ordering above the driver (or not at all).
//   - ModeFlag: the one-bit ordering flag of section 3.1 with the Full,
//     Back and Part semantics, optionally letting non-conflicting reads
//     bypass ordering (the -NR option).
//   - ModeChains: the explicit dependency lists of section 3.2 — each
//     request names previously issued request IDs that must complete first.
//
// Every request is traced with its queue and service delays, reproducing
// the paper's driver instrumentation ("per-request queue and service
// delays").
package dev

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// Errors a request can complete with (Request.Err). They surface only on a
// faulted disk: with no fault plan installed every request still succeeds.
var (
	// ErrIO: the command kept failing transiently (or tearing) until the
	// driver's retry budget ran out.
	ErrIO = errors.New("dev: unrecoverable i/o error")
	// ErrBadSector: the range covers a permanently bad sector that could
	// not be remapped — unreadable data (reads) or an exhausted spare pool
	// (writes).
	ErrBadSector = errors.New("dev: permanent bad sector")
)

// OrderMode selects how the scheduler interprets ordering information.
type OrderMode int

// Ordering modes.
const (
	ModeIgnore OrderMode = iota
	ModeFlag
	ModeChains
)

// FlagSemantics is the contract between file system and scheduler for
// ModeFlag (section 3.1).
type FlagSemantics int

// Flag semantics, from most to least restrictive.
const (
	// SemFull: a flagged request is a full barrier — it waits for all
	// previous requests, and nothing submitted later passes it.
	SemFull FlagSemantics = iota
	// SemBack: requests submitted after a flagged request cannot be
	// scheduled before it or anything submitted before it; the flagged
	// request itself reorders freely with previous non-flagged requests.
	SemBack
	// SemPart: requests submitted after a flagged request cannot be
	// scheduled before it; everything else reorders freely.
	SemPart
)

func (s FlagSemantics) String() string {
	switch s {
	case SemFull:
		return "Full"
	case SemBack:
		return "Back"
	case SemPart:
		return "Part"
	}
	return fmt.Sprintf("FlagSemantics(%d)", int(s))
}

// Config parameterizes the driver.
type Config struct {
	Mode OrderMode
	Sem  FlagSemantics // for ModeFlag
	// NR lets non-conflicting reads bypass writes that are waiting on
	// ordering restrictions (the -NR option; meaningless for ModeChains,
	// where reads simply carry no dependencies).
	NR bool

	// MaxRetries bounds the redispatch attempts after a recoverable fault
	// (transient error, torn write). 0 means DefaultMaxRetries; negative
	// disables retries. Remap retries (a write healed a bad sector) do not
	// count: they always make progress.
	MaxRetries int
}

// maxConcat bounds the sectors dispatched as one concatenated disk command:
// 128 KB, a typical mid-90s transfer cap.
const maxConcat = 256

// DefaultMaxRetries is the default per-batch retry budget.
const DefaultMaxRetries = 4

// DefaultRetryBackoff is the virtual-time delay before the first
// redispatch, doubling per attempt.
const DefaultRetryBackoff = 2 * sim.Millisecond

// Request is one disk request. Submit assigns ID; Done is the request's own
// completion, so a request costs one allocation.
// The bytes of a write's Data must not change until Done fires (the buffer
// cache enforces this with write locks or, under -CB, by moving the write
// to a copy of its bytes before its buffer is modified, which repoints
// Data).
type Request struct {
	ID    uint64
	Op    disk.Op
	LBN   int64  // first sector
	Count int    // sectors
	Data  []byte // write source; nil for reads
	Buf   []byte // read destination; nil for writes

	Flag bool // ModeFlag: ordering flag
	// shadowed is set once a later pending write covers the request's whole
	// sector range; computeBarrier wires a conflict to that write instead.
	shadowed  bool
	DependsOn []uint64 // ModeChains: request IDs that must complete first

	Done sim.Completion
	// refs counts the readers of a pooled request (AllocRequest, Ref,
	// Release); the last Release recycles it.
	refs int32

	// Err is the request's final outcome, set before Done fires: nil on
	// success, ErrIO/ErrBadSector when the driver exhausted its recovery
	// options. A failed write left nothing (new) on the media; a failed
	// read filled nothing into Buf.
	Err error

	// Barrier bookkeeping: each pending request keeps the list of successors
	// it blocks, and successors keep only the count of outstanding
	// predecessors. The edges are the ones computeBarrier wires — a subset
	// of the predecessor relation with the same closure over the pending
	// set, at most one per (predecessor, successor) pair — so completion is
	// a plain counter decrement per edge. The list's storage comes from,
	// and at retirement goes back to, the driver's edgeFree.
	blocks []*Request // successors to unblock when this request completes
	nwait  int32      // outstanding wired predecessors; dispatchable at zero

	// Pending-set bookkeeping. The set is indexed by LBN, Count, Op and
	// Flag, which must not change while the request is pending.
	flagIdx int32  // position in Driver.flagLoose
	seenBy  uint64 // ID of the last submission whose barrier visited this request
	// qprev and qnext thread a queued request into Driver.queue (nil once
	// dispatched); qpos is its position there, larger for later arrivals.
	qprev, qnext *Request
	qpos         uint64

	enqueueAt  sim.Time
	dispatchAt sim.Time
	// readyAt is when the last barrier predecessor completed (== enqueueAt
	// for requests submitted with no predecessors). With dispatchAt it
	// splits a waiter's blocked interval into barrier / queue / media
	// portions for the operation-span recorder.
	readyAt sim.Time
}

func (r *Request) end() int64 { return r.LBN + int64(r.Count) }

func (r *Request) overlaps(q *Request) bool {
	return r.LBN < q.end() && q.LBN < r.end()
}

// conflicts reports the mode-independent ordering constraint: overlapping
// sector ranges where at least one side writes never reorder.
func conflicts(r, q *Request) bool {
	return r.overlaps(q) && (r.Op == disk.Write || q.Op == disk.Write)
}

// SubmitTime returns when the request entered the driver queue. A write's
// Data carries at least the source buffer's state as of this instant (a
// later modification either waits for completion or moves the write to a
// -CB copy), which is what lets durability-notification schemes credit
// waiters registered at or before it.
func (r *Request) SubmitTime() sim.Time { return r.enqueueAt }

// ReadyTime returns when the request became dispatchable (its last
// ordering predecessor completed); before that instant the request was
// barrier-blocked. Valid once the request has been submitted and its
// barrier cleared; zero until then.
func (r *Request) ReadyTime() sim.Time { return r.readyAt }

// DispatchTime returns when the driver most recently handed the request
// to the media (re-set on retry dispatches, matching the trace's Queue
// accounting).
func (r *Request) DispatchTime() sim.Time { return r.dispatchAt }

// Stat is one traced request, in completion order.
type Stat struct {
	// ID is the request ID — the same identifier the crashmc model checker
	// uses to name offending writes, so violations can be correlated with
	// this trace's queue/service delays.
	ID       uint64
	Op       disk.Op
	Sectors  int
	Queue    sim.Duration // submission -> dispatch
	Service  sim.Duration // dispatch -> completion ("disk access time")
	Response sim.Duration // submission -> completion ("driver response time")
	CacheHit bool
}

// Trace accumulates the statistics of the requests retired since the last
// Reset: their count and the sums the means come from, in virtual
// nanoseconds. Every reader but the per-request analysis wants only these,
// so by default no per-request record is kept.
type Trace struct {
	n                 int
	service, response sim.Duration
	// Keep, when set, makes the trace also log each retired request's Stat
	// in Stats, in completion order (mdsim -trace's analysis and CSV).
	Keep  bool
	Stats []Stat
}

// Reset clears the trace (used to scope measurement to a benchmark window).
// Keep stays as it is.
func (t *Trace) Reset() {
	t.n, t.service, t.response = 0, 0, 0
	t.Stats = nil
}

// Requests returns the number of traced requests.
func (t *Trace) Requests() int { return t.n }

// AvgServiceMS returns the mean disk access time in milliseconds.
func (t *Trace) AvgServiceMS() float64 { return t.avg(t.service) }

// AvgResponseMS returns the mean driver response time in milliseconds.
func (t *Trace) AvgResponseMS() float64 { return t.avg(t.response) }

// avg is the mean of a sum over the traced requests, in whole virtual
// nanoseconds, as milliseconds.
func (t *Trace) avg(sum sim.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	return (sum / sim.Duration(t.n)).Milliseconds()
}

// add traces one retired request.
func (t *Trace) add(s Stat) {
	t.n++
	t.service += s.Service
	t.response += s.Response
	if t.Keep {
		t.Stats = append(t.Stats, s)
	}
}

// Driver is the device driver plus disk scheduler.
type Driver struct {
	eng *sim.Engine
	dsk *disk.Disk
	cfg Config

	nextID uint64
	// queue is the sentinel of a circular list through the submitted, not
	// dispatched requests: in submission order until splitReadBatch puts the
	// survivors of a bad-sector read batch back at the tail. nqueued counts
	// them and qseq numbers their arrivals (Request.qpos).
	queue    Request
	nqueued  int
	qseq     uint64
	inflight []*Request // dispatched batch, in LBN order
	pending  map[uint64]*Request
	// ready has one bit per 16-sector bucket, set while a queued eligible
	// request starts in it: where C-LOOK looks instead of scanning the queue.
	ready []uint64
	// The pending set as predecessorOf asks about it, so that computeBarrier
	// visits candidates, not every pending request: by the 16-sector buckets
	// a request touches (conflicts; concat looks up its next member here
	// too), and the flagged ones (flag barriers). Dependencies by ID go
	// through pending itself. An empty bucket is nil; there is one bucket
	// past the disk's last, where concat looks for the successor of a
	// request ending at the last sector.
	bySector   sim.Table[[]*Request]
	bucketFree [][]*Request // emptied bucket slices, for the next new bucket
	// The pending flagged requests. Those that themselves wait for every
	// pending flagged request (behindFlags) form a chain in ID order — each
	// was wired behind the one before it — so only the newest is kept: a
	// member is dispatched after every older one retired, hence when the
	// tail retires the chain is empty. The others (flagged reads that bypass
	// ordering) are listed.
	nflagged  int
	flagTail  *Request
	flagLoose []*Request

	free        []*Request // LIFO request pool (see AllocRequest/Release)
	predScratch []uint64   // reusable observer pred-ID buffer
	// edgeFree recycles successor-list storage: edgeFree[k] holds emptied
	// lists of capacity 1<<k, LIFO, for wire to grow a list into.
	edgeFree [bits.UintSize][][]*Request
	// batchBuf holds the batches concat builds, alternately: a batch is built
	// while the previous one is still completing (a completion callback
	// Submits and kicks the idle disk), never while an older one is.
	batchBuf  [2][]*Request
	batchSel  int
	batchDone func() // the in-flight batch's completion event

	lastFlagID uint64 // most recent flagged request ever submitted (ModeFlag)
	headLBN    int64  // C-LOOK position: sector after the last dispatch

	batchAccess   disk.Access
	batchDispatch sim.Time
	batchLBN      int64
	// batchState distinguishes an in-flight batch transferring on the media
	// from one parked in a retry backoff — Crash must know which: a batch in
	// backoff has already failed and commits nothing further, whereas a
	// transferring batch commits the elapsed-time sector prefix.
	batchState   int
	batchRetries int

	idleC   *sim.Completion
	crashed bool
	obs     Observer
	// dispatchHook, set by tests, sees each batch before it is dispatched,
	// while the head is still where C-LOOK looked from.
	dispatchHook func(batch []*Request)

	// Faults counts the driver's fault handling (all zero on a clean disk).
	Faults FaultStats

	// OrderingStalls counts requests submitted with at least one
	// mode-specific ordering predecessor (flag or chain sequencing) —
	// pure sector-conflict edges, which arise in every mode, are excluded.
	// ModeIgnore drivers (No Order, Conventional, Soft Updates) therefore
	// always report zero: the paper-shaped "requests blocked on ordering"
	// counter. It is defined on the predecessor relation, not on the edges
	// wired: a request behind the flag barrier counts when some pending
	// flagged request does not overlap it. Always on.
	OrderingStalls int64

	Trace Trace
}

// FaultStats counts the driver's recovery activity.
type FaultStats struct {
	Transient  int64 `json:"transient"`   // transient command failures seen
	Torn       int64 `json:"torn"`        // torn writes seen (prefix committed)
	BadSectors int64 `json:"bad_sectors"` // permanent bad-sector hits
	Remaps     int64 `json:"remaps"`      // bad sectors healed by remapping
	Retries    int64 `json:"retries"`     // batch redispatches
	Errors     int64 `json:"errors"`      // requests failed to their issuers
}

// batchState values.
const (
	batchIdle = iota
	batchTransferring
	batchBackoff
)

// New returns a driver for dsk driven by eng.
func New(eng *sim.Engine, dsk *disk.Disk, cfg Config) *Driver {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	d := &Driver{
		eng:      eng,
		dsk:      dsk,
		cfg:      cfg,
		pending:  make(map[uint64]*Request),
		bySector: sim.NewTable[[]*Request](dsk.Sectors()>>bucketShift + 1),
		ready:    make([]uint64, (dsk.Sectors()-1)>>bucketShift/64+1),
	}
	d.queue.qprev, d.queue.qnext = &d.queue, &d.queue
	d.batchDone = func() { d.complete(d.inflight, d.batchAccess) }
	return d
}

// AllocRequest returns a blank Request, reusing one from the driver's pool
// when available. The pool is per-driver (so per-System) and LIFO, which
// keeps reuse deterministic. Callers fill in the request and Submit it as
// usual; pooling is optional — a plain &Request{} behaves identically.
// The caller holds the request's one reference.
func (d *Driver) AllocRequest() *Request {
	var r *Request
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		r = &Request{}
	}
	r.refs = 1
	return r
}

// Ref takes one more reference to a request from AllocRequest: a reader
// that looks at the request after it may have completed (its Done, Err or
// timeline) holds one from before it could complete until it is done
// reading, and then drops it with Release.
func (r *Request) Ref() *Request {
	r.refs++
	return r
}

// Release drops a reference to a request; the last one returns it to the
// pool for a later AllocRequest, and Done must have fired by then. Once the
// last reference is dropped nothing may touch the pointer again: the buffer
// cache's reads own theirs end to end, and its writes follow the
// last-reader rule of DESIGN.md §9. Done keeps its waiter and callback
// storage across reuse; the successor list went back to the driver when
// the request retired.
func (d *Driver) Release(r *Request) {
	if r.refs > 1 {
		r.refs--
		return
	}
	if !r.Done.Fired() {
		panic("dev: Release of incomplete request")
	}
	r.Done.Reset()
	*r = Request{Done: r.Done}
	d.free = append(d.free, r)
}

// Config returns the driver configuration.
func (d *Driver) Config() Config { return d.cfg }

// Sectors returns the number of sectors of the disk the driver addresses.
func (d *Driver) Sectors() int64 { return d.dsk.Sectors() }

// Observer receives the driver's request timeline: a submission event for
// every request (with the barrier set the driver will enforce) and a
// completion event for every serviced batch, in virtual-time order. The
// crash-state model checker records this timeline to enumerate the crash
// images a workload could leave behind. Callbacks run synchronously in
// engine context and must not block or re-enter the driver.
type Observer interface {
	// RequestSubmitted fires after r's barrier is computed. preds is the
	// sorted set of pending request IDs r was wired behind: a subset of
	// Predecessors(...) whose closure over the pending set — follow each
	// pending request's own preds — is the closure of the full sets, so the
	// downward-closed subsets of the recorded graph are the same (a request
	// behind the flag barrier names the newest flagged request of the chain,
	// which named the one before it). The slice is a scratch buffer valid
	// only during the callback. For writes, r.Data is the exact write source
	// (stable until completion).
	RequestSubmitted(r *Request, preds []uint64)
	// RequestsCompleted fires when a batch's data has been moved — writes
	// are on the media — and before any completion callbacks run.
	RequestsCompleted(ids []uint64, at sim.Time)
}

// FaultObserver is the optional extension an Observer may implement to see
// fault events. The crash-state model checker needs both: a torn write
// changes the media without completing anything (a new kind of crash atom),
// and a failed request must leave the pending set without ever being a
// completion candidate.
type FaultObserver interface {
	// BatchTorn fires when a faulted write batch committed a sector prefix:
	// `sectors` sectors, spread across the batch's requests in LBN order
	// (ids are the write requests in that order). The requests remain
	// pending — the driver will retry or fail them.
	BatchTorn(ids []uint64, sectors int, at sim.Time)
	// RequestsFailed fires when requests complete with an error: nothing
	// (further) reached the media and they are no longer pending.
	RequestsFailed(ids []uint64, at sim.Time)
}

// SetObserver installs (or, with nil, removes) the timeline observer.
func (d *Driver) SetObserver(o Observer) { d.obs = o }

// Busy reports whether any request is queued or in flight.
func (d *Driver) Busy() bool { return d.nqueued > 0 || len(d.inflight) > 0 }

// Submit enqueues r, computes its ordering barrier, and starts the disk if
// idle. It returns r for convenience; r.Done fires at completion.
func (d *Driver) Submit(r *Request) *Request {
	if r.Count <= 0 {
		panic("dev: request with no sectors")
	}
	if r.LBN < 0 || r.end() > d.dsk.Sectors() {
		panic("dev: request outside the disk")
	}
	if r.Op == disk.Write && len(r.Data) != r.Count*disk.SectorSize {
		panic("dev: write data size mismatch")
	}
	if r.Op == disk.Read && len(r.Buf) != r.Count*disk.SectorSize {
		panic("dev: read buffer size mismatch")
	}
	d.nextID++
	r.ID = d.nextID
	r.Err, r.shadowed = nil, false
	if r.Done.Fired() {
		r.Done.Reset()
	}
	r.enqueueAt = d.eng.Now()

	d.computeBarrier(r)
	if r.nwait == 0 {
		r.readyAt = r.enqueueAt
	}
	if d.obs != nil {
		slices.Sort(d.predScratch)
		d.obs.RequestSubmitted(r, d.predScratch)
	}

	d.index(r)
	d.enqueue(r)
	if r.Flag && d.cfg.Mode == ModeFlag {
		d.lastFlagID = r.ID
	}
	d.kick()
	return r
}

// enqueue puts r at the tail of the queue, entering its bucket into the
// ready set if r is eligible.
func (d *Driver) enqueue(r *Request) {
	r.qprev, r.qnext = d.queue.qprev, &d.queue
	r.qprev.qnext, d.queue.qprev = r, r
	d.qseq++
	r.qpos = d.qseq
	d.nqueued++
	if r.eligible() {
		d.markReady(r)
	}
}

// dequeue takes r off the queue; its bucket leaves the ready set unless
// another queued eligible request starts there.
func (d *Driver) dequeue(r *Request) {
	r.qprev.qnext, r.qnext.qprev = r.qnext, r.qprev
	r.qprev, r.qnext = nil, nil
	d.nqueued--
	k := r.LBN >> bucketShift
	for _, q := range d.bySector.Get(k) {
		if q.qnext != nil && q.eligible() && q.LBN>>bucketShift == k {
			return
		}
	}
	d.ready[k/64] &^= 1 << (k % 64)
}

// markReady adds the bucket r starts in to the ready set; r is queued and
// eligible.
func (d *Driver) markReady(r *Request) {
	k := r.LBN >> bucketShift
	d.ready[k/64] |= 1 << (k % 64)
}

// nextReady returns the first bucket at or after k in the ready set, or -1.
func (d *Driver) nextReady(k int64) int64 {
	w := k / 64
	if w >= int64(len(d.ready)) {
		return -1
	}
	word := d.ready[w] &^ (1<<(k%64) - 1)
	for word == 0 {
		if w++; w == int64(len(d.ready)) {
			return -1
		}
		word = d.ready[w]
	}
	return w*64 + int64(bits.TrailingZeros64(word))
}

// bucketShift sizes the sector index: 16-sector buckets, one file system
// block, so a block-sized request touches one or two.
const bucketShift = 4

// buckets returns the first and last sector-index bucket r touches.
func (r *Request) buckets() (lo, hi int64) {
	return r.LBN >> bucketShift, (r.end() - 1) >> bucketShift
}

// index enters r into the pending set.
func (d *Driver) index(r *Request) {
	d.pending[r.ID] = r
	for k, hi := r.buckets(); k <= hi; k++ {
		s := d.bySector.At(k)
		if *s == nil {
			d.bySector.Use(k)
			if n := len(d.bucketFree); n > 0 {
				*s, d.bucketFree = d.bucketFree[n-1], d.bucketFree[:n-1]
			}
		}
		*s = append(*s, r)
	}
	if r.Flag {
		d.nflagged++
		if behindFlags(&d.cfg, r) {
			d.flagTail = r
		} else {
			r.flagIdx = int32(len(d.flagLoose))
			d.flagLoose = append(d.flagLoose, r)
		}
	}
}

// unindex takes r out of the pending set.
func (d *Driver) unindex(r *Request) {
	delete(d.pending, r.ID)
	for k, hi := r.buckets(); k <= hi; k++ {
		bucket := d.bySector.At(k)
		s := *bucket
		n := len(s) - 1
		s[slices.Index(s, r)] = s[n]
		s[n] = nil
		if n > 0 {
			*bucket = s[:n]
		} else {
			*bucket = nil
			d.bySector.Unuse(k)
			d.bucketFree = append(d.bucketFree, s[:0])
		}
	}
	if !r.Flag {
		return
	}
	d.nflagged--
	if behindFlags(&d.cfg, r) {
		if d.flagTail == r {
			d.flagTail = nil // r ran after every older chain member retired
		}
		return
	}
	n := len(d.flagLoose) - 1
	last := d.flagLoose[n]
	d.flagLoose[r.flagIdx], last.flagIdx = last, r.flagIdx
	d.flagLoose[n] = nil
	d.flagLoose = d.flagLoose[:n]
}

// behindFlags reports whether r waits for every pending flagged request —
// whether predecessorOf(cfg, r, q, ·) holds for every pending q with q.Flag,
// whatever else q is.
func behindFlags(cfg *Config, r *Request) bool {
	switch cfg.Mode {
	case ModeFlag:
		return !(cfg.NR && r.Op == disk.Read)
	case ModeChains:
		return r.Op == disk.Write
	}
	return false
}

// computeBarrier wires r into the barrier graph. The definition of what r
// waits for is predecessorOf, asked of every pending request q (queue +
// inflight — exactly the requests submitted before r that have not retired);
// what is wired — r appended to q's successor list, r's
// outstanding-predecessor count bumped — is a subset of those q whose closure
// over the pending set is the same, so r becomes dispatchable at the same
// instant:
//
//   - every pending q whose sectors conflict with r's, found through the
//     sector buckets r touches, unless q is shadowed: a later pending write
//     covers q's whole range. That write overlaps r and writes, so r conflicts
//     with it too, and it waits for q (directly or through a write covering q
//     in turn): it retires after q, and fails only once dispatched, after q
//     retired. A write marks shadowed what it covers as it meets it; reads
//     never shadow;
//   - where pending flags are barriers to r (behindFlags): the newest pending
//     flagged request that is itself behind flags, and each pending flagged
//     request that is not (a flagged read passing the barrier). The former
//     make a chain: each was wired behind the newest before it, so the newest
//     retires last and one edge stands for all of them. A member that fails
//     breaks nothing ("a failed predecessor constrains nothing"): it fails
//     only after dispatch, that is after every older member retired;
//   - under ModeChains, every pending q that r names by ID;
//   - under SemBack/SemFull, which order r behind requests that are neither
//     flagged nor overlapping, every predecessor: the whole pending set is
//     asked.
//
// A request reached twice is wired once; visit order is immaterial (successor
// lists grow by r at the end, nwait is a count, the observer's predScratch is
// sorted); a shadowed request is stamped as visited, so the flag and ID routes
// skip it too. OrderingStalls is counted on the definition: a flag barrier
// stalls r when some pending flagged request does not conflict with it, and
// all that do were met through the buckets, shadowed or not.
func (d *Driver) computeBarrier(r *Request) {
	cfg := &d.cfg
	d.predScratch = d.predScratch[:0]
	ordered := false
	behind := behindFlags(cfg, r)
	if behind && cfg.Mode == ModeFlag && cfg.Sem != SemPart {
		visit := func(q *Request) {
			if predecessorOf(cfg, r, q, d.lastFlagID) {
				d.wire(q, r)
				ordered = ordered || !conflicts(r, q)
			}
		}
		for _, q := range d.inflight {
			visit(q)
		}
		for q := d.queue.qnext; q != &d.queue; q = q.qnext {
			visit(q)
		}
	} else {
		flagConflicts := 0
		for k, hi := r.buckets(); k <= hi; k++ {
			for _, q := range d.bySector.Get(k) {
				if q.seenBy == r.ID || !conflicts(r, q) {
					continue
				}
				if q.Flag {
					flagConflicts++
				}
				if q.shadowed {
					q.seenBy = r.ID // its coverer stands for it
				} else {
					d.wire(q, r)
				}
				if r.Op == disk.Write && r.LBN <= q.LBN && q.end() <= r.end() {
					q.shadowed = true
				}
			}
		}
		if behind {
			ordered = d.nflagged > flagConflicts
			if d.flagTail != nil {
				d.wire(d.flagTail, r)
			}
			for _, q := range d.flagLoose {
				d.wire(q, r)
			}
		}
		if cfg.Mode == ModeChains {
			for _, id := range r.DependsOn {
				if q := d.pending[id]; q != nil {
					d.wire(q, r)
					ordered = ordered || !conflicts(r, q)
				}
			}
		}
	}
	if ordered {
		d.OrderingStalls++
	}
}

// wire adds the barrier edge q → r unless r's submission already visited q.
func (d *Driver) wire(q, r *Request) {
	if q.seenBy == r.ID {
		return
	}
	q.seenBy = r.ID
	if len(q.blocks) == cap(q.blocks) {
		q.blocks = d.growEdges(q.blocks)
	}
	q.blocks = append(q.blocks, r)
	r.nwait++
	if d.obs != nil {
		d.predScratch = append(d.predScratch, q.ID)
	}
}

// minEdgeClass is the size class of a new successor list: room for four.
const minEdgeClass = 2

// growEdges returns s's successors in a list of twice its capacity (at
// least 1<<minEdgeClass), taken from edgeFree when one is parked there;
// s's own storage goes back to edgeFree.
func (d *Driver) growEdges(s []*Request) []*Request {
	k := minEdgeClass
	if c := cap(s); c > 0 {
		k = bits.Len(uint(c)) // c is 1<<(k-1)
	}
	var g []*Request
	if free := d.edgeFree[k]; len(free) > 0 {
		g = free[len(free)-1]
		free[len(free)-1] = nil
		d.edgeFree[k] = free[:len(free)-1]
	} else {
		g = make([]*Request, 0, 1<<k)
	}
	g = append(g, s...)
	d.freeEdges(s)
	return g
}

// freeEdges clears a successor list and parks its storage on edgeFree.
func (d *Driver) freeEdges(s []*Request) {
	c := cap(s)
	if c == 0 {
		return
	}
	clear(s)
	k := bits.TrailingZeros(uint(c))
	d.edgeFree[k] = append(d.edgeFree[k], s[:0])
}

// predecessorOf reports whether pending request q must complete before r
// may be dispatched under cfg. It is the definition of the barrier relation
// (Predecessors applies it to a whole pending set); computeBarrier enforces
// it by wiring a subset of the pairs it holds for, and asks it directly only
// under SemBack/SemFull.
func predecessorOf(cfg *Config, r, q *Request, lastFlagID uint64) bool {
	// Conflicts: overlapping ranges where at least one side writes never
	// reorder, in every mode.
	if conflicts(r, q) {
		return true
	}
	switch cfg.Mode {
	case ModeIgnore:
		// Nothing further.
	case ModeFlag:
		if cfg.NR && r.Op == disk.Read {
			return false // reads bypass ordering, conflicts already handled
		}
		switch cfg.Sem {
		case SemPart:
			// Wait for every pending flagged request.
			return q.Flag
		case SemBack:
			// Wait for everything submitted at or before the most
			// recently submitted flagged request (whether or not that
			// flagged request itself is still pending).
			return q.ID <= lastFlagID
		case SemFull:
			// As SemBack, and a flagged request is additionally a full
			// barrier: it waits for all previous requests.
			return q.ID <= lastFlagID || r.Flag
		}
	case ModeChains:
		// Barrier fallback (section 3.2's simpler de-allocation approach):
		// a flagged request under chains acts as a Part-NR-style barrier —
		// later writes wait for it, reads pass.
		if r.Op == disk.Write && q.Flag {
			return true
		}
		// Explicit dependency lists; IDs no longer pending dropped out by
		// construction (q ranges over pending requests only).
		for _, id := range r.DependsOn {
			if id == q.ID {
				return true
			}
		}
	}
	return false
}

// Predecessors computes the ordering barrier of r: the IDs among `prior`
// — the pending (submitted, not completed) requests that precede r, in
// any order — that must complete before r may be dispatched under cfg.
// lastFlagID is the ID of the most recently submitted flagged request at
// r's submission time (zero if none; relevant to ModeFlag only).
//
// This is the exact predicate Submit enforces (predecessorOf, applied to
// each pending request); it is exported because the crash-state model
// checker (package crashmc) uses the same relation to decide which
// completed-subsets of pending writes a crash could legally expose, and
// because the flag-semantics tests pin its behavior directly.
func Predecessors(cfg Config, r *Request, prior []*Request, lastFlagID uint64) map[uint64]struct{} {
	waiting := make(map[uint64]struct{})
	for _, q := range prior {
		if predecessorOf(&cfg, r, q, lastFlagID) {
			waiting[q.ID] = struct{}{}
		}
	}
	return waiting
}

func (r *Request) eligible() bool { return r.nwait == 0 }

// kick dispatches the next batch if the disk is idle and work is eligible.
func (d *Driver) kick() {
	if d.crashed || len(d.inflight) > 0 || d.nqueued == 0 {
		return
	}
	// Some request is eligible: with nothing in flight, the oldest pending
	// one has no pending predecessor left.
	d.dispatch(d.concat(d.pickCLOOK()))
}

// pickCLOOK selects the eligible request with the smallest LBN at or after
// the head position, wrapping to the smallest LBN when none is ahead; of
// several at that LBN, the one queued first.
func (d *Driver) pickCLOOK() *Request {
	if r := d.firstReady(d.headLBN); r != nil {
		return r
	}
	return d.firstReady(0)
}

// firstReady returns the queued eligible request with the smallest (LBN,
// queue position) at or after sector lbn, or nil. The ready set names the
// buckets to look in; only the first one can hold requests before lbn.
func (d *Driver) firstReady(lbn int64) *Request {
	for k := d.nextReady(lbn >> bucketShift); k >= 0; k = d.nextReady(k + 1) {
		var best *Request
		for _, q := range d.bySector.Get(k) {
			if q.LBN>>bucketShift == k && q.LBN >= lbn && q.qnext != nil && q.eligible() &&
				(best == nil || q.LBN < best.LBN || q.LBN == best.LBN && q.qpos < best.qpos) {
				best = q
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// concat gathers pick plus any eligible same-op requests exactly contiguous
// after it, up to the concatenation cap — the paper's "scheduling code in
// the device driver concatenates sequential requests". The next member is
// looked up in the sector bucket where it would start (nothing is in flight
// while a batch is built, so every request there is queued); of several
// starting at one sector, the earliest submission — the lowest ID — wins.
func (d *Driver) concat(pick *Request) []*Request {
	d.batchSel ^= 1
	batch := append(d.batchBuf[d.batchSel][:0], pick)
	total := pick.Count
	end := pick.end()
	for total < maxConcat {
		var next *Request
		for _, q := range d.bySector.Get(end >> bucketShift) {
			if q.LBN == end && q.Op == pick.Op && q.eligible() && (next == nil || q.ID < next.ID) {
				next = q
			}
		}
		if next == nil || total+next.Count > maxConcat {
			break
		}
		batch = append(batch, next)
		total += next.Count
		end = next.end()
	}
	d.batchBuf[d.batchSel] = batch
	return batch
}

func (d *Driver) dispatch(batch []*Request) {
	if d.dispatchHook != nil {
		d.dispatchHook(batch)
	}
	now := d.eng.Now()
	for _, r := range batch {
		r.dispatchAt = now
		d.dequeue(r)
	}
	d.inflight = batch
	d.batchRetries = 0
	d.headLBN = batch[len(batch)-1].end() // a batch is one contiguous run
	d.startBatch(batch)
}

// startBatch plans the media access for an in-flight batch (first dispatch
// or a retry) and schedules its completion.
func (d *Driver) startBatch(batch []*Request) {
	now := d.eng.Now()
	total := int(batch[len(batch)-1].end() - batch[0].LBN)
	acc := d.dsk.Plan(now, batch[0].Op, batch[0].LBN, total)
	d.batchAccess = acc
	d.batchDispatch = now
	d.batchLBN = batch[0].LBN
	d.batchState = batchTransferring
	d.eng.At(now+acc.Service, d.batchDone)
}

func batchIDs(batch []*Request) []uint64 {
	ids := make([]uint64, len(batch))
	for i, r := range batch {
		ids[i] = r.ID
	}
	return ids
}

func (d *Driver) complete(batch []*Request, acc disk.Access) {
	if d.crashed {
		return
	}
	now := d.eng.Now()
	switch f := acc.Fault; f.Kind {
	case fault.Torn:
		// The write stopped after f.TornSectors sectors: commit that prefix
		// (each sector is still atomic), tell the observer the media
		// changed, and recover by rewriting the whole batch.
		d.Faults.Torn++
		d.commitBatchPrefix(batch, f.TornSectors, now)
		d.retryOrFail(batch, ErrIO)
		return
	case fault.Transient:
		// Command aborted before the transfer: nothing reached the media.
		d.Faults.Transient++
		d.retryOrFail(batch, ErrIO)
		return
	case fault.BadSector:
		d.Faults.BadSectors++
		if batch[0].Op == disk.Write {
			// Sectors before the bad one are on the media (a tear at the
			// fault point); then try to heal the sector by remapping it to
			// a spare. A successful remap always earns a retry — it made
			// progress — while an exhausted spare pool is unrecoverable.
			d.commitBatchPrefix(batch, f.TornSectors, now)
			if d.dsk.Remap(f.Sector) {
				d.Faults.Remaps++
				d.scheduleRetry(batch)
				return
			}
			d.finish(batch, now, ErrBadSector, false)
			return
		}
		// A permanently unreadable sector: retrying cannot help. Fail the
		// requests covering it and send the rest of the batch back to the
		// queue for a normal redispatch.
		d.splitReadBatch(batch, f.Sector, now)
		return
	}

	// Success (fault.None, or fault.Latency already folded into Service).
	// Move data first: writes commit to media, reads fill buffers. Only
	// after the media reflects the batch do we fire completions, so that
	// completion callbacks (e.g. soft updates redo) observe committed state.
	for _, r := range batch {
		if r.Op == disk.Write {
			d.dsk.Commit(r.LBN, r.Data)
		} else {
			d.dsk.ReadAt(r.LBN, r.Buf)
		}
	}
	d.finish(batch, now, nil, acc.CacheHit)
}

// finish ends the in-flight batch by completing the requests in batch (all
// of it, or the part of a split read batch that failed), with err if they
// failed: the disk goes idle, each request is retired, the observer hears
// before any completion callback runs, then Done fires — a callback may
// Submit, and start the disk again — and the disk is offered more work.
func (d *Driver) finish(batch []*Request, now sim.Time, err error, cacheHit bool) {
	d.inflight = nil
	d.batchState = batchIdle
	d.batchRetries = 0
	for _, r := range batch {
		d.retire(r, now, err, cacheHit)
	}
	if fo, ok := d.obs.(FaultObserver); ok && err != nil && len(batch) > 0 {
		fo.RequestsFailed(batchIDs(batch), now)
	} else if d.obs != nil && err == nil {
		d.obs.RequestsCompleted(batchIDs(batch), now)
	}
	for _, r := range batch {
		r.Done.Fire(d.eng)
	}
	d.kick()
	d.fireIdle()
}

// retire is the one way a request stops being pending, completed or failed:
// it leaves the pending set and its indexes, unblocks its barrier
// successors (a failed predecessor constrains nothing — its data never
// reached the media) and is traced.
func (d *Driver) retire(r *Request, now sim.Time, err error, cacheHit bool) {
	d.unindex(r)
	if r.Err = err; err != nil {
		d.Faults.Errors++
	}
	for _, blocked := range r.blocks {
		blocked.nwait--
		if blocked.nwait == 0 {
			blocked.readyAt = now
			d.markReady(blocked) // still queued: it could not be dispatched
		}
	}
	d.freeEdges(r.blocks)
	r.blocks = nil
	d.Trace.add(Stat{
		ID:       r.ID,
		Op:       r.Op,
		Sectors:  r.Count,
		Queue:    r.dispatchAt - r.enqueueAt,
		Service:  now - r.dispatchAt,
		Response: now - r.enqueueAt,
		CacheHit: cacheHit,
	})
}

func (d *Driver) fireIdle() {
	if !d.Busy() && d.idleC != nil {
		c := d.idleC
		d.idleC = nil
		c.Fire(d.eng)
	}
}

// commitBatchPrefix commits the first `sectors` sectors of a write batch in
// LBN order — the physical result of a torn or bad-sector-interrupted
// transfer — and notifies the fault observer that the media changed while
// the requests stay pending.
func (d *Driver) commitBatchPrefix(batch []*Request, sectors int, at sim.Time) {
	if sectors <= 0 {
		return
	}
	d.commitPrefix(batch, sectors)
	if fo, ok := d.obs.(FaultObserver); ok {
		fo.BatchTorn(batchIDs(batch), sectors, at)
	}
}

// commitPrefix puts on the media the first `sectors` sectors of the
// in-flight batch, in LBN order; a read batch commits nothing.
func (d *Driver) commitPrefix(batch []*Request, sectors int) {
	lbn := d.batchLBN
	for _, r := range batch {
		if sectors <= 0 || r.Op != disk.Write {
			break
		}
		d.dsk.CommitPrefix(lbn, r.Data, min(sectors, r.Count))
		sectors -= r.Count
		lbn += int64(r.Count)
	}
}

// retryOrFail redispatches the batch after a backoff, or fails it once the
// retry budget is spent.
func (d *Driver) retryOrFail(batch []*Request, err error) {
	if d.batchRetries >= d.cfg.MaxRetries {
		d.finish(batch, d.eng.Now(), err, false)
		return
	}
	d.batchRetries++
	d.scheduleRetry(batch)
}

// scheduleRetry parks the batch in a backoff and replans it afterwards. The
// batch stays in-flight the whole time: its requests remain pending, their
// barrier successors stay blocked, and Done does not fire — dependents can
// never observe a half-recovered write as durable.
func (d *Driver) scheduleRetry(batch []*Request) {
	d.Faults.Retries++
	backoff := DefaultRetryBackoff
	if d.batchRetries > 1 {
		backoff <<= d.batchRetries - 1
	}
	d.batchState = batchBackoff
	d.eng.At(d.eng.Now()+backoff, func() {
		if d.crashed {
			return
		}
		d.startBatch(batch)
	})
}

// splitReadBatch handles a permanent bad sector under a read batch: the
// requests whose range covers the sector fail (their data is gone until
// some write remaps the sector), the others go back to the queue and are
// dispatched again — their barrier state is untouched, so ordering holds.
func (d *Driver) splitReadBatch(batch []*Request, bad int64, now sim.Time) {
	var failed []*Request
	for _, r := range batch {
		if r.LBN <= bad && bad < r.end() {
			failed = append(failed, r)
		} else {
			d.enqueue(r)
		}
	}
	d.finish(failed, now, ErrBadSector, false)
}

// WaitIdle blocks p until the driver has no queued or in-flight requests.
func (d *Driver) WaitIdle(p *sim.Proc) {
	for d.Busy() {
		if d.idleC == nil {
			d.idleC = sim.NewCompletion()
		}
		d.idleC.Wait(p)
	}
}

// Crash freezes the driver at the current (halted) virtual time: the
// in-flight batch commits the sector prefix the disk had physically written,
// queued requests are discarded, and no further completions fire. Call only
// after Engine.RunUntil has stopped delivering events.
func (d *Driver) Crash(at sim.Time) {
	d.crashed = true
	if len(d.inflight) == 0 {
		return
	}
	// A batch parked in a retry backoff is not touching the media: whatever
	// prefix its earlier attempt tore off was already committed at complete()
	// time, and nothing further lands between attempts.
	if d.batchState != batchTransferring {
		return
	}
	elapsed := at - d.batchDispatch
	transferred := elapsed - d.batchAccess.Positioning
	var sectorsDone int
	if transferred > 0 && d.batchAccess.PerSector > 0 {
		sectorsDone = int(transferred / d.batchAccess.PerSector)
	}
	// The current attempt's own fault bounds what this transfer can commit:
	// a transient failure aborts during positioning (nothing lands), a torn
	// or bad-sector write stops at the fault point even if the elapsed-time
	// estimate says more sectors would have fit.
	switch d.batchAccess.Fault.Kind {
	case fault.Transient:
		sectorsDone = 0
	case fault.Torn, fault.BadSector:
		if sectorsDone > d.batchAccess.Fault.TornSectors {
			sectorsDone = d.batchAccess.Fault.TornSectors
		}
	}
	d.commitPrefix(d.inflight, sectorsDone)
}
