// Package sim provides a deterministic discrete-event simulation engine.
//
// The whole reproduction runs in virtual time: simulated processes ("users",
// the syncer daemon) are coroutines driven in lock-step by an Engine, so at
// any instant at most one of them — the engine or exactly one process — is
// running. This makes every experiment bit-for-bit reproducible and immune
// to Go scheduler and GC noise, which is essential for the paper's
// buffer-cache-sensitive benchmarks.
//
// Time is an int64 count of virtual nanoseconds. Events scheduled for the
// same instant fire in schedule order (a strictly increasing sequence number
// breaks ties), so simulations are deterministic by construction provided
// callers do not let Go map iteration order influence scheduling decisions.
//
// The event queue is built for the hot path (DESIGN.md §9): events are small
// values in a flat 4-ary min-heap (no per-event allocation, no interface
// boxing), process wake-ups carry the *Proc directly instead of a closure,
// and events scheduled for the current instant — every wake-up — go through
// a FIFO fast queue that bypasses the heap entirely. Ordering is identical
// to a single global queue: the dispatcher always fires the queued event
// with the smallest (time, delivery priority, sequence) key. A process whose
// Sleep would schedule that very event — its wake-up is the next one the
// running dispatch loop would fire — does not park at all: the engine
// advances the clock and counts the event in place, so event order,
// Executed() and every virtual result are those of the parked path. The
// dispatch loop does not nest: running an engine from one of its own
// processes or callbacks panics.
//
// Table, the package's other export for the hot path, is the dense
// first-touch index the cache, file system and driver look their per-
// fragment, per-inode and per-bucket state up in without hashing.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Time is a virtual-time instant in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// maxTime is the largest schedulable instant; Run uses it as its limit.
const maxTime = Time(1<<62 - 1)

// Milliseconds reports t as a floating-point millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// event is a queued occurrence. Exactly one of proc and fn is set: proc
// wake-ups are the dominant case and carrying the pointer here is what
// lets every wake site schedule without allocating a closure.
type event struct {
	at  Time
	seq uint64
	// pri is the delivery priority class. Ordinary events have pri 0;
	// message deliveries carry pri = (source endpoint, source sequence)
	// packed into one word, so same-instant deliveries fire in (source,
	// source order) order rather than in the order they were scheduled.
	// Within one instant all pri-0 events fire (in schedule order) before
	// any delivery, and deliveries fire in pri order.
	pri  uint64
	proc *Proc  // if non-nil: resume this process
	fn   func() // otherwise: run this callback in engine context
}

// less orders events by (at, pri, seq): virtual time first, delivery
// priority class second, schedule order as the final deterministic
// tie-break.
func (ev *event) less(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	if ev.pri != o.pri {
		return ev.pri < o.pri
	}
	return ev.seq < o.seq
}

// Engine is the simulation executive: an event queue plus the lock-step
// hand-off between the goroutine running the dispatch loop and the process
// coroutines it resumes.
type Engine struct {
	now Time
	seq uint64
	// heap is a flat 4-ary min-heap of value events ordered by (at, pri, seq).
	// 4-ary beats binary here: sift paths are ~half as long and the four
	// children share a cache line's worth of adjacent slots.
	heap []event
	// fast is the same-instant FIFO: every queued entry has at == now, and
	// seq increases with index, so the head is always the queue's minimum.
	// Wake-ups (the dominant event kind) are pushed and popped here without
	// ever touching the heap.
	fast     []event
	fastHead int
	live     int  // live (spawned, not finished) processes
	halted   bool // RunUntil hit its limit; scheduling now panics until the next run
	procIDs  int  // per-engine Proc.ID source; engines must not share state
	executed uint64
	// running is set while run's dispatch loop is active; limit and cond
	// are that loop's, which Sleep's fast path must honour.
	running bool
	limit   Time
	cond    func() bool
	// parkAlways turns the sleeper fast path off (tests only).
	parkAlways bool
	// idle holds the carriers whose process finished during the current
	// run, LIFO, for the next Spawn; run stops them when it returns.
	idle []*carrier

	// fastLow is the fast queue's shrink-hysteresis counter: consecutive
	// drains during which it stayed under a quarter of its backing array. A
	// burst of wake-ups grows the array; without this it would retain the
	// peak capacity for the rest of a long run (DESIGN.md §9).
	fastLow int
}

// Executed reports the number of events dispatched since the engine was
// created (the work unit of bench's units_per_host_s).
func (e *Engine) Executed() uint64 { return e.executed }

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int { return e.live }

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// checkSchedulable panics on the two scheduling errors that would otherwise
// corrupt causality silently: scheduling in the past, and scheduling into a
// halted engine (after RunUntil froze the simulation, e.g. for a crash
// snapshot, nothing should be appending events).
func (e *Engine) checkSchedulable(t Time) {
	if e.halted {
		panic(fmt.Sprintf("sim: scheduling event at %v after engine halted", t))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

// push queues ev, routing same-instant events to the fast FIFO. The fast
// queue preserves global (at, pri, seq) order because all its entries share
// at == now and pri == 0 and are appended in seq order; pop compares its
// head against the heap top before firing. Prioritized deliveries always
// take the heap: a later-scheduled pri-0 wake at the same instant must
// still fire before them.
func (e *Engine) push(ev event) {
	if ev.at == e.now && ev.pri == 0 {
		e.fast = append(e.fast, ev)
		return
	}
	e.heapPush(ev)
}

// At schedules fn to run in engine context at time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	e.checkSchedulable(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// AtPri schedules fn to run in engine context at time t, ordered after
// every ordinary (pri-0) event at that instant and against other
// deliveries by pri. This is the network's message path: pri packs the
// sending endpoint and its per-sender sequence number, so delivery order
// at an instant is a pure function of the message set, not of the order
// the sends were made in. A caller that schedules often passes a function
// it bound once (a pooled payload's method value), so scheduling
// allocates nothing.
func (e *Engine) AtPri(t Time, pri uint64, fn func()) {
	if pri == 0 {
		panic("sim: AtPri with zero priority (use At)")
	}
	e.checkSchedulable(t)
	e.seq++
	e.push(event{at: t, pri: pri, seq: e.seq, fn: fn})
}

// scheduleProc schedules p to resume at time t. This is the allocation-free
// wake path: the event carries the proc pointer, no closure is created.
func (e *Engine) scheduleProc(t Time, p *Proc) {
	e.checkSchedulable(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, proc: p})
}

// wake schedules p to resume at the current instant.
func (e *Engine) wake(p *Proc) { e.scheduleProc(e.now, p) }

// heapPush inserts ev into the 4-ary heap.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the heap minimum.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop fn/proc references
	h = h[:n]
	e.heap = h
	i := 0
	for {
		min := i
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if h[c].less(&h[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// shrinkMinCap is the smallest backing capacity the fast queue's shrink
// hysteresis considers releasing; below it the retained memory is noise.
const shrinkMinCap = 128

// peek returns the (at, seq) of the next event to fire, if any.
func (e *Engine) peek() (Time, bool) {
	hasFast := e.fastHead < len(e.fast)
	hasHeap := len(e.heap) > 0
	switch {
	case hasFast && hasHeap:
		f, h := &e.fast[e.fastHead], &e.heap[0]
		if h.less(f) {
			return h.at, true
		}
		return f.at, true
	case hasFast:
		return e.fast[e.fastHead].at, true
	case hasHeap:
		return e.heap[0].at, true
	}
	return 0, false
}

// pop removes and returns the globally next event: the fast-queue head wins
// unless the heap top has the same timestamp and a smaller sequence number
// (an earlier-scheduled event at the same instant that went through the heap
// before the instant became "now").
func (e *Engine) pop() event {
	if e.fastHead < len(e.fast) {
		f := &e.fast[e.fastHead]
		if len(e.heap) == 0 || !e.heap[0].less(f) {
			ev := *f
			*f = event{} // drop fn/proc references
			e.fastHead++
			if e.fastHead == len(e.fast) {
				e.resetFast()
			}
			return ev
		}
	}
	return e.heapPop()
}

// resetFast rewinds a drained fast queue. When it has drained at or under a
// quarter of its backing array (the drain length is the cycle's peak
// occupancy) for cap(fast) drains in a row, the array is reallocated at half
// capacity: the window scales with the capacity held, so a load oscillating
// around the threshold never thrashes, while a long run after a one-off
// burst hands the peak array back.
func (e *Engine) resetFast() {
	c := cap(e.fast)
	if c >= shrinkMinCap && len(e.fast)*4 <= c {
		e.fastLow++
		if e.fastLow >= c {
			e.fastLow = 0
			e.fast = make([]event, 0, c/2)
			e.fastHead = 0
			return
		}
	} else {
		e.fastLow = 0
	}
	e.fast = e.fast[:0]
	e.fastHead = 0
}

// Proc is a simulated process: a body that runs on a carrier coroutine
// only when the engine resumes it, and always parks itself back before the
// engine continues. A resume and a park are each one direct runtime
// coroutine switch — no channel, no trip through the Go scheduler.
type Proc struct {
	eng  *Engine
	Name string
	ID   int
	// c is the carrier the process runs on; nil once its body returned,
	// when the carrier may already run another process.
	c *carrier

	// Obs anchors per-process observability state: the operation span the
	// process is currently executing, owned by internal/obs. The engine
	// never reads it — it exists on Proc so that every layer that already
	// has the *Proc in hand (file system, cache, driver waits) can find the
	// active span without a side table, and so that daemon processes (the
	// syncer) naturally carry none. It is nil whenever tracing is disabled
	// or no operation is in flight, and observers must never let it
	// influence scheduling: spans record virtual time, they do not spend it.
	Obs any
}

// carrier is a process coroutine: one iter.Pull goroutine that runs the
// bodies Spawn hands it, one after another. Between bodies it parks on its
// engine's idle list, so a simulation that spawns a process per arrival
// starts a goroutine per concurrent process, not per arrival.
type carrier struct {
	// next resumes the carrier and returns when it parks; yield is its
	// other half, valid inside the carrier; stop ends an idle carrier.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	proc  *Proc
	fn    func(*Proc) // proc's body; nil once it returned
}

// newCarrier starts a carrier on e.
func (e *Engine) newCarrier() *carrier {
	c := &carrier{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.run()
			if !yield(struct{}{}) {
				return // stopped while idle
			}
		}
	})
	return c
}

// run executes the carrier's current body to its end.
func (c *carrier) run() {
	p := c.proc
	defer func() {
		if r := recover(); r != nil {
			// iter.Pull hands a panic to whoever called next — the
			// dispatch loop — so Run's caller sees it, with the process
			// named and the stack it died on.
			panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", p.Name, r, debug.Stack()))
		}
	}()
	c.fn(p)
	c.fn = nil
}

// Spawn starts a new simulated process executing fn. The process begins
// running at the current virtual time (as a scheduled event), so Spawn can
// be called before Run or from inside another process or callback. It runs
// on an idle carrier when one is parked, else on a new one.
//
// Proc IDs are allocated per engine, not per process-wide counter: many
// independent engines run concurrently under the harness experiment
// runner, and any package-level mutable state here would be both a data
// race and a determinism leak between simulations.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.procIDs++
	p := &Proc{eng: e, Name: name, ID: e.procIDs}
	e.live++
	var c *carrier
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = e.newCarrier()
	}
	c.proc, c.fn = p, fn
	p.c = c
	e.wake(p)
	return p
}

// runProc resumes p and returns when p parks again or its body returns;
// then its carrier goes on the idle list. Resuming a finished process is a
// bookkeeping bug upstream (a stale wake-up) and panics.
func (e *Engine) runProc(p *Proc) {
	c := p.c
	if c == nil {
		panic(fmt.Sprintf("sim: wake of finished process %q", p.Name))
	}
	c.next()
	if c.fn == nil {
		p.c, c.proc = nil, nil
		e.live--
		e.idle = append(e.idle, c)
	}
}

// stopIdle ends the idle carriers' goroutines. run calls it on return, so
// an engine dropped between runs leaves behind only its parked processes.
func (e *Engine) stopIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// Run executes events until the event queue is empty.
func (e *Engine) Run() { e.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= limit, then stops, leaving the
// remaining queue intact. Processes that are parked simply never resume;
// a parked coroutine holds no lock and nobody waits on it, so dropping the
// Engine strands them without blocking anything. This is how
// crash-injection tests freeze a system mid-flight. Stopping at the limit marks the engine halted (see Halted);
// calling Run/RunUntil/RunWhile again clears the mark and resumes delivery.
func (e *Engine) RunUntil(limit Time) { e.run(limit, nil) }

// RunWhile executes events for as long as cond() holds and events remain.
// It lets callers run a workload to completion while daemon processes (the
// syncer) keep scheduling events forever.
func (e *Engine) RunWhile(cond func() bool) { e.run(maxTime, cond) }

// run is the single dispatch loop behind Run, RunUntil and RunWhile. It
// does not nest: a process or callback that runs its own engine would
// dispatch that engine's events inside one of them, and Sleep's fast path
// would read the inner loop's limit and condition, so entering run while
// the engine is dispatching panics.
func (e *Engine) run(limit Time, cond func() bool) {
	if e.running {
		panic("sim: Engine.Run/RunUntil/RunWhile called while the same engine is dispatching (from one of its processes or callbacks)")
	}
	e.running, e.limit, e.cond = true, limit, cond
	e.halted = false
	defer e.endRun()
	for cond == nil || cond() {
		at, ok := e.peek()
		if !ok {
			return // queue drained
		}
		if at > limit {
			e.halted = true
			return
		}
		e.dispatch(e.pop())
	}
}

// endRun leaves the dispatch loop, also when a process panicked out of it.
func (e *Engine) endRun() {
	e.running, e.cond = false, nil
	e.stopIdle()
}

// dispatch fires one popped event.
func (e *Engine) dispatch(ev event) {
	e.now = ev.at
	e.executed++
	if ev.proc != nil {
		e.runProc(ev.proc)
	} else {
		ev.fn()
	}
}

// block parks the calling process and hands control back to the engine. The
// caller must already have arranged for something to resume it.
func (p *Proc) block() { p.c.yield(struct{}{}) }

// Sleep suspends the process for d of virtual time. When the wake-up is
// the next event the dispatch loop would fire anyway (wakeIsNext), the
// process runs on without parking: the engine advances the clock and
// counts the event exactly as dispatching the wake-up would.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	t := e.now + d
	if e.wakeIsNext(t) {
		e.seq++
		e.now = t
		e.executed++
		return
	}
	e.scheduleProc(t, p)
	p.block()
}

// wakeIsNext reports whether a wake-up scheduled now for instant t would be
// the next event the running dispatch loop fires. Its key would be (t, 0,
// a sequence number above every queued one), so every fast-queue entry (at
// now <= t, pri 0, older) precedes it, as does a heap top earlier than t or
// at t with pri 0; a top later than t, or at t with a delivery priority,
// follows it. The loop would then fire it unless the wake is past
// RunUntil's limit or RunWhile's condition no longer holds — both read
// here just as the loop would read them once the process parked, since
// nothing runs in between.
func (e *Engine) wakeIsNext(t Time) bool {
	if e.parkAlways || e.fastHead < len(e.fast) || t > e.limit {
		return false
	}
	if len(e.heap) > 0 {
		if top := &e.heap[0]; top.at < t || top.at == t && top.pri == 0 {
			return false
		}
	}
	return e.cond == nil || e.cond()
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Completion is a one-shot event that processes can wait on and that either
// processes or engine-context callbacks can fire. Waiting after the
// completion has fired returns immediately. All waiters wake in FIFO order
// at the instant Fire is called.
type Completion struct {
	fired     bool
	FiredAt   Time
	waiters   []*Proc
	callbacks []func()
}

// OnFire registers fn to run (in the firing context, before waiters wake)
// when the completion fires; if it already fired, fn runs immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		fn()
		return
	}
	c.callbacks = append(c.callbacks, fn)
}

// NewCompletion returns an unfired completion.
func NewCompletion() *Completion { return &Completion{} }

// Fired reports whether Fire has been called.
func (c *Completion) Fired() bool { return c.fired }

// Fire marks the completion done and wakes all waiters at the current time.
// Firing twice panics — it always indicates a bookkeeping bug upstream.
// The waiter and callback slices keep their capacity (entries are nilled
// out) so a Reset completion reuses them allocation-free. A callback may
// Reset its completion but must not register on it again before Fire
// returns (that panics): its owner recycles it after whatever it submits.
func (c *Completion) Fire(e *Engine) {
	if c.fired {
		panic("sim: Completion fired twice")
	}
	c.fired = true
	c.FiredAt = e.Now()
	n := len(c.callbacks)
	for i, fn := range c.callbacks {
		c.callbacks[i] = nil
		fn()
	}
	if len(c.callbacks) > n {
		// OnFire on a fired completion runs at once, so only a callback
		// that Reset the completion can have appended: truncating would
		// drop its registration silently.
		panic("sim: Completion reset and reused by one of its own callbacks")
	}
	c.callbacks = c.callbacks[:0]
	for i, p := range c.waiters {
		c.waiters[i] = nil
		e.wake(p)
	}
	c.waiters = c.waiters[:0]
}

// Reset returns a fired completion to the unfired state so its owner can
// reuse it (the device driver's request pool does). Resetting an unfired
// completion panics: parked waiters or registered callbacks would be
// silently dropped.
func (c *Completion) Reset() {
	if !c.fired {
		panic("sim: Reset of unfired Completion")
	}
	c.fired = false
	c.FiredAt = 0
}

// Wait blocks p until the completion fires (returns at once if it already
// has).
func (c *Completion) Wait(p *Proc) {
	if c.fired {
		return
	}
	c.waiters = append(c.waiters, p)
	p.block()
}

// dequeue removes and returns the head of a FIFO waiter list, keeping the
// slice's capacity (the lists are tiny — a handful of simulated users — so
// the copy is cheaper than letting append reallocate forever).
func dequeue(waiters *[]*Proc) *Proc {
	w := *waiters
	head := w[0]
	n := copy(w, w[1:])
	w[n] = nil
	*waiters = w[:n]
	return head
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff that
// knows its holder.
type Mutex struct {
	holder  *Proc // nil when free
	waiters []*Proc
}

// Lock acquires m, blocking p in virtual time if necessary. A process that
// already holds m panics rather than wait on itself.
func (m *Mutex) Lock(p *Proc) {
	if m.holder == nil {
		m.holder = p
		return
	}
	if m.holder == p {
		panic(fmt.Sprintf("sim: process %q locks a Mutex it holds", p.Name))
	}
	m.waiters = append(m.waiters, p)
	p.block()
	// Ownership was transferred to us by Unlock.
}

// HeldBy reports whether p holds m: from Lock, or from the Unlock that
// dequeued it, until p's Unlock.
func (m *Mutex) HeldBy(p *Proc) bool { return p != nil && m.holder == p }

// Unlock releases m, handing ownership to the oldest waiter if any. It may
// be called from engine context (completion callbacks) as well as from
// processes, so it takes the engine rather than a proc.
func (m *Mutex) Unlock(e *Engine) {
	if m.holder == nil {
		panic("sim: unlock of unlocked Mutex")
	}
	if len(m.waiters) == 0 {
		m.holder = nil
		return
	}
	// Lock stays held; the dequeued waiter now owns it.
	m.holder = dequeue(&m.waiters)
	e.wake(m.holder)
}

// CPU models a single time-shared processor. Use charges virtual CPU time
// in round-robin quanta so concurrent processes interleave the way a 1994
// uniprocessor UNIX box would, instead of one long burst serializing
// everyone behind it.
type CPU struct {
	Quantum Duration // scheduling quantum; 0 means DefaultQuantum
	busy    bool
	waiters []*Proc
	// Used accumulates total CPU time consumed, for the paper's
	// "CPU time" columns.
	Used Duration
}

// DefaultQuantum approximates a 1994 UNIX scheduler time slice.
const DefaultQuantum = 10 * Millisecond

func (c *CPU) quantum() Duration {
	if c.Quantum > 0 {
		return c.Quantum
	}
	return DefaultQuantum
}

// Use consumes d of CPU time, competing with other processes.
func (c *CPU) Use(p *Proc, d Duration) {
	if d <= 0 {
		return
	}
	c.Used += d
	q := c.quantum()
	for d > 0 {
		c.acquire(p)
		slice := q
		if d < slice {
			slice = d
		}
		p.Sleep(slice)
		d -= slice
		c.release(p.eng)
	}
}

func (c *CPU) acquire(p *Proc) {
	if !c.busy {
		c.busy = true
		return
	}
	c.waiters = append(c.waiters, p)
	p.block()
}

func (c *CPU) release(e *Engine) {
	if len(c.waiters) == 0 {
		c.busy = false
		return
	}
	e.wake(dequeue(&c.waiters))
}

// WaitGroup lets one process wait for N completions (used to join the
// per-user benchmark processes).
type WaitGroup struct {
	n      int
	waiter *Proc
}

// Add increments the outstanding count.
func (w *WaitGroup) Add(n int) { w.n += n }

// Done decrements the count, waking the waiter when it reaches zero.
func (w *WaitGroup) Done(e *Engine) {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if w.n == 0 && w.waiter != nil {
		p := w.waiter
		w.waiter = nil
		e.wake(p)
	}
}

// Wait blocks p until the count reaches zero. Only one waiter is supported.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	if w.waiter != nil {
		panic("sim: WaitGroup supports a single waiter")
	}
	w.waiter = p
	p.block()
}
