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

	// Reused storage: notified ops and emptied waitByFrag lists.
	aopFree  []*aop
	waitFree [][]*aop

	flusherLive bool

	// OnNotice, when set, is called with each delivered notification; no
	// log of them is kept. Tests set it to check durability follows each.
	OnNotice func(Notice)

	// Stats.
	Registered, Notified int64
	PeakPending          int
	GroupFlushes         int64
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

// NewAsync returns the decoupled-durability scheme with a group-commit
// window of window operations and a flush every interval; both must be
// positive (fsim's scheme table defaults them). The driver must be
// configured with dev.ModeChains (the scheme's ordering is Chains').
func NewAsync(window int, interval sim.Duration) *Async {
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

// fragDurableAsOf credits the ops whose registration predates asOf: the
// caller asserts the fragment's on-media contents include every
// modification made before that instant. A caller that has verified the
// fragment's current contents are on the media (or moot) passes Now, and
// every waiting op is credited. Later registrants may have modified state
// the write missed (-CB snapshots at submit), so they stay waiting for a
// later write. Satisfied ops leave the window; the rest keep their order.
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
			// In no list now, and out of pending below: reusable.
			o.notify(op)
			o.aopFree = append(o.aopFree, op)
		}
	}
	if len(keep) == 0 {
		delete(o.waitByFrag, frag)
		clear(ops)
		o.waitFree = append(o.waitFree, ops[:0])
	} else {
		o.waitByFrag[frag] = keep
	}
	o.pending = slices.DeleteFunc(o.pending, satisfied)
}

func satisfied(op *aop) bool { return op.waiting == 0 }

// notify delivers op's durability notification and wakes a blocked waiter.
func (o *Async) notify(op *aop) {
	if o.OnNotice != nil {
		o.OnNotice(Notice{
			ID: op.id, Kind: op.kind, Ino: op.ino,
			RegisteredAt: op.registeredAt, NotifiedAt: o.eng.Now(),
		})
	}
	o.Notified++
	if op.done != nil {
		op.done.Fire(o.eng)
	}
}

// admit enters an op into the in-flight window, waiting on the home
// fragments frags (done fires on its notification). Full window: the
// oldest waiting op's buffers are flushed synchronously (admission
// throttle).
func (o *Async) admit(p *sim.Proc, kind NoticeKind, ino ffs.Ino, done *sim.Completion, frags ...int64) {
	var op *aop
	if n := len(o.aopFree); n > 0 {
		op, o.aopFree = o.aopFree[n-1], o.aopFree[:n-1]
	} else {
		op = new(aop)
	}
	o.nextOp++
	*op = aop{id: o.nextOp, kind: kind, ino: ino, registeredAt: o.eng.Now(), done: done}
	for _, frag := range frags {
		op.waiting++
		ops, ok := o.waitByFrag[frag]
		if n := len(o.waitFree); !ok && n > 0 {
			ops, o.waitFree = o.waitFree[n-1], o.waitFree[:n-1]
		}
		o.waitByFrag[frag] = append(ops, op)
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
	id := op.id // op is reused once notified, which a write below may do
	c := o.fs.Cache()
	for _, frag := range o.waitFrags() {
		if op.id != id || !slices.Contains(o.waitByFrag[frag], op) {
			continue
		}
		b := c.Lookup(frag)
		if b == nil || b.Settled() {
			// Buffer dropped (freed) or its post-registration write
			// already completed: the registered state is durable or moot.
			o.fragDurableAsOf(frag, o.eng.Now())
			continue
		}
		c.Bdwrite(b)
		err := c.Bwrite(p, b) // WriteDone credits the waiters
		if err != nil {
			// Terminal write failure (faulted disk): deliver the
			// notification anyway — the data is lost either way and the
			// window must drain.
			o.fragDurableAsOf(frag, o.eng.Now())
		}
	}
	if op.id == id && op.waiting > 0 {
		// Defensive: every fragment path above resolves, but never spin.
		op.waiting = 0
		o.notify(op)
		o.pending = slices.DeleteFunc(o.pending, satisfied)
	}
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
			if b == nil || b.Settled() {
				o.fragDurableAsOf(frag, o.eng.Now())
				continue
			}
			if b.Dirty && !b.InFlight() {
				if r := c.Bawrite(p, b); r != nil {
					c.Driver().Release(r)
				}
			}
		}
	}
	o.flusherLive = false
}

// AddEntry implements ffs.Ordering: Chains' ordering, plus the op enters
// the durability window on the directory and inode buffers.
func (o *Async) AddEntry(p *sim.Proc, rec *ffs.LinkRec) {
	o.Chains.AddEntry(p, rec)
	o.admit(p, NoticeAdd, rec.Ino, nil, rec.DirBuf.Frag, rec.InoBuf.Frag)
}

// RemoveEntry implements ffs.Ordering: Chains' ordering, plus the op
// enters the durability window on the directory buffer.
func (o *Async) RemoveEntry(p *sim.Proc, rec ffs.RemRec) {
	o.Chains.RemoveEntry(p, rec)
	o.admit(p, NoticeRemove, rec.Ino, nil, rec.DirBuf.Frag)
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
	o.admit(p, NoticeFsync, ino, done, frags...)
	done.Wait(p)
	return nil
}

var _ ffs.DurabilityWaiter = (*Async)(nil)
