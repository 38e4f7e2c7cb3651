package ordering

import (
	"slices"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// Async is the AsyncFS-inspired decoupled-durability scheme: operations
// become visible the moment they execute (delayed writes, exactly the
// scheduler-chains write pattern, so crash images stay rule-consistent),
// but durability is acknowledged asynchronously — each naming operation
// registers the buffers whose home writes constitute its persistence, and
// a notification is queued (with the virtual completion timestamp) once
// they are all on the media.
//
// Two mechanisms bound the visibility/durability gap:
//
//   - a bounded in-flight window: at most Window operations may await
//     notification; a registering operation past that blocks flushing the
//     oldest — the AsyncFS admission throttle;
//   - batched group commit: a flusher daemon sweeps every Interval and
//     issues one asynchronous write per distinct dirty buffer registered
//     by waiting operations, so many operations on the same directory
//     block are made durable by a single write.
//
// The crash contract (the fourth conformance predicate): an operation
// whose notification was delivered before the crash MUST survive crash
// recovery; an operation still inside the window MAY be lost even though
// the caller already saw it complete.
type Async struct {
	*Chains

	// Window caps operations awaiting notification; Interval is the group
	// commit sweep period. Both are fixed at construction.
	Window   int
	Interval sim.Duration

	eng *sim.Engine
	cb  bool // cache runs the block-copy enhancement (snapshot at submit)

	pending []*aop // ops awaiting notification, registration order
	nextOp  uint64
	// waitByFrag indexes pending ops by the home fragments they await.
	waitByFrag map[int64][]*aop

	flusherLive bool

	notices []Notice

	// Stats.
	Registered, Notified, Superseded int64
	PeakPending                      int
	GroupFlushes                     int64
}

// aop is one operation awaiting its durability notification.
type aop struct {
	id           uint64
	kind         NoticeKind
	ino          ffs.Ino
	registeredAt sim.Time
	waiting      int             // unsatisfied home fragments
	done         *sim.Completion // fired on notification (fsync waiters)
}

// NoticeKind tags what kind of naming operation a Notice acknowledges.
type NoticeKind uint8

// Notice kinds.
const (
	NoticeAdd    NoticeKind = iota + 1 // entry + inode durable (create/mkdir/link)
	NoticeRemove                       // entry removal durable (unlink/rmdir)
	NoticeFsync                        // a file's registered contents durable (fsync)
)

func (k NoticeKind) String() string {
	switch k {
	case NoticeAdd:
		return "add"
	case NoticeFsync:
		return "fsync"
	}
	return "remove"
}

// Notice is one delivered durability notification.
type Notice struct {
	ID           uint64
	Kind         NoticeKind
	Ino          ffs.Ino
	RegisteredAt sim.Time
	NotifiedAt   sim.Time
}

// DefaultAsyncWindow / DefaultAsyncInterval are the fsim defaults.
const (
	DefaultAsyncWindow   = 64
	DefaultAsyncInterval = 25 * sim.Millisecond
)

// NewAsync returns the decoupled-durability scheme. The driver must be
// configured with dev.ModeChains (the scheme's ordering is Chains').
func NewAsync(window int, interval sim.Duration) *Async {
	if window <= 0 {
		window = DefaultAsyncWindow
	}
	if interval <= 0 {
		interval = DefaultAsyncInterval
	}
	return &Async{
		Chains:     NewChains(),
		Window:     window,
		Interval:   interval,
		waitByFrag: make(map[int64][]*aop),
	}
}

// Start implements ffs.Ordering.
func (o *Async) Start(fs *ffs.FS) {
	o.Chains.Start(fs)
	o.eng = fs.Engine()
	o.cb = fs.Cache().Config().CB
}

// WriteDone implements cache.Hooks: Chains' bookkeeping, then the ops
// waiting on the buffer are credited.
func (o *Async) WriteDone(b *cache.Buf, r *dev.Request) {
	o.Chains.WriteDone(b, r)
	// The written data reflects the buffer as of the write's submission
	// under -CB (snapshot) and as of its completion without it (the
	// buffer is write-locked while in flight, so any registration up to
	// completion had its modification applied before submission).
	asOf := o.eng.Now()
	if o.cb {
		asOf = r.SubmitTime()
	}
	o.fragDurableAsOf(b.Frag, asOf)
}

// fragDurable credits every waiting op: the caller has verified the
// fragment's current contents are on the media (or moot), so every
// registered state is covered.
func (o *Async) fragDurable(frag int64) { o.fragDurableAsOf(frag, o.eng.Now()) }

// fragDurableAsOf credits the ops whose registration predates asOf: the
// caller asserts the fragment's on-media contents include every
// modification made before that instant. Later registrants may have
// modified state the write missed (-CB snapshots at submit), so they
// stay waiting for a later write.
func (o *Async) fragDurableAsOf(frag int64, asOf sim.Time) {
	ops := o.waitByFrag[frag]
	if len(ops) == 0 {
		return
	}
	keep := ops[:0]
	for _, op := range ops {
		if op.registeredAt > asOf {
			keep = append(keep, op)
			continue
		}
		op.waiting--
		if op.waiting == 0 {
			o.notify(op)
		}
	}
	if len(keep) == 0 {
		delete(o.waitByFrag, frag)
	} else {
		o.waitByFrag[frag] = keep
	}
	o.compactPending()
}

// notify queues op's durability notification and wakes a blocked waiter.
func (o *Async) notify(op *aop) {
	o.notices = append(o.notices, Notice{
		ID: op.id, Kind: op.kind, Ino: op.ino,
		RegisteredAt: op.registeredAt, NotifiedAt: o.eng.Now(),
	})
	o.Notified++
	if op.done != nil {
		op.done.Fire(o.eng)
	}
}

// compactPending drops satisfied ops from the window (front-biased; order
// is preserved for the remaining ops).
func (o *Async) compactPending() {
	live := o.pending[:0]
	for _, op := range o.pending {
		if op.waiting > 0 {
			live = append(live, op)
		}
	}
	for i := len(live); i < len(o.pending); i++ {
		o.pending[i] = nil
	}
	o.pending = live
}

// register enters an operation into the in-flight window, waiting on the
// given home fragments. Full window: the oldest waiting op's buffers are
// flushed synchronously (admission throttle).
func (o *Async) register(p *sim.Proc, kind NoticeKind, ino ffs.Ino, bufs ...*cache.Buf) {
	var frags []int64
	for _, b := range bufs {
		if b != nil {
			frags = append(frags, b.Frag)
		}
	}
	o.admit(p, &aop{kind: kind, ino: ino}, frags)
}

// admit enters op into the in-flight window, waiting on frags.
func (o *Async) admit(p *sim.Proc, op *aop, frags []int64) {
	o.nextOp++
	op.id = o.nextOp
	op.registeredAt = o.eng.Now()
	for _, frag := range frags {
		op.waiting++
		o.waitByFrag[frag] = append(o.waitByFrag[frag], op)
	}
	o.Registered++
	if op.waiting == 0 {
		o.notify(op)
		return
	}
	o.pending = append(o.pending, op)
	if len(o.pending) > o.PeakPending {
		o.PeakPending = len(o.pending)
	}
	for len(o.pending) > o.Window {
		o.throttle(p)
	}
	if !o.flusherLive && len(o.pending) > 0 {
		o.flusherLive = true
		o.eng.Spawn("gcommit", o.flusher)
	}
}

// waitFrags snapshots waitByFrag's keys in ascending order. Sweeps must
// not range the map directly: map iteration order is randomized per
// process, and the order writes are issued in changes disk scheduling and
// therefore virtual time. The snapshot is local because a blocking write
// inside a sweep can let other processes register (and throttle) before
// the sweep finishes.
func (o *Async) waitFrags() []int64 {
	frags := make([]int64, 0, len(o.waitByFrag))
	for frag := range o.waitByFrag {
		frags = append(frags, frag)
	}
	slices.Sort(frags)
	return frags
}

// throttle synchronously persists the oldest pending op's buffers.
func (o *Async) throttle(p *sim.Proc) {
	op := o.pending[0]
	c := o.fs.Cache()
	for _, frag := range o.waitFrags() {
		if !containsOp(o.waitByFrag[frag], op) {
			continue
		}
		b := c.Lookup(frag)
		if b == nil || (!b.Dirty && !b.InFlight()) {
			// Buffer dropped (freed) or its post-registration write
			// already completed: the registered state is durable or moot.
			o.Superseded++
			o.fragDurable(frag)
			continue
		}
		c.Bdwrite(b)
		err := c.Bwrite(p, b) // WriteDone credits the waiters
		if err != nil {
			// Terminal write failure (faulted disk): deliver the
			// notification anyway — the data is lost either way and the
			// window must drain.
			o.Superseded++
			o.fragDurable(frag)
		}
	}
	if op.waiting > 0 {
		// Defensive: every fragment path above resolves, but never spin.
		op.waiting = 0
		o.notify(op)
		o.compactPending()
	}
}

func containsOp(ops []*aop, op *aop) bool {
	for _, x := range ops {
		if x == op {
			return true
		}
	}
	return false
}

// flusher is the group-commit daemon: while operations await
// notification, sweep every Interval and issue one asynchronous write per
// distinct registered-and-dirty buffer. It exits when the window drains
// (and is respawned on the next registration), so engine drains always
// terminate.
func (o *Async) flusher(p *sim.Proc) {
	c := o.fs.Cache()
	for len(o.pending) > 0 {
		p.Sleep(o.Interval)
		o.GroupFlushes++
		for _, frag := range o.waitFrags() {
			if len(o.waitByFrag[frag]) == 0 {
				continue // satisfied by a completion during this sweep
			}
			b := c.Lookup(frag)
			if b == nil || (!b.Dirty && !b.InFlight()) {
				o.Superseded++
				o.fragDurable(frag)
				continue
			}
			if b.Dirty && !b.InFlight() {
				c.Bawrite(p, b)
			}
		}
	}
	o.flusherLive = false
}

// Notices returns the delivered notifications (registration order of
// completion) without clearing them.
func (o *Async) Notices() []Notice { return o.notices }

// DrainNotices returns and clears the delivered notifications.
func (o *Async) DrainNotices() []Notice {
	n := o.notices
	o.notices = nil
	return n
}

// PendingOps reports operations still inside the in-flight window.
func (o *Async) PendingOps() int { return len(o.pending) }

// AddEntry implements ffs.Ordering: Chains' ordering, plus the op enters
// the durability window on the directory and inode buffers.
func (o *Async) AddEntry(p *sim.Proc, rec *ffs.LinkRec) {
	o.Chains.AddEntry(p, rec)
	o.register(p, NoticeAdd, rec.Ino, rec.DirBuf, rec.InoBuf)
}

// RemoveEntry implements ffs.Ordering: Chains' ordering, plus the op
// enters the durability window on the directory buffer.
func (o *Async) RemoveEntry(p *sim.Proc, rec *ffs.RemRec) {
	o.Chains.RemoveEntry(p, rec)
	o.register(p, NoticeRemove, rec.Ino, rec.DirBuf)
}

// WaitDurable implements ffs.DurabilityWaiter: fsync under decoupled
// durability. The file's registered fragments enter the window as one
// operation (counted against Window like any naming op) and the caller
// blocks until its notification — the group-commit flusher's next sweeps
// carry the writes, so concurrent fsyncs share batched I/O instead of
// each stalling the driver's dependency chains with synchronous writes.
// ffs hands over a non-empty list of fragments that are dirty or in
// flight, and nothing between its filter and this call yields.
func (o *Async) WaitDurable(p *sim.Proc, ino ffs.Ino, frags []int64) error {
	done := sim.NewCompletion()
	o.admit(p, &aop{kind: NoticeFsync, ino: ino, done: done}, frags)
	done.Wait(p)
	return nil
}

var _ ffs.DurabilityWaiter = (*Async)(nil)
