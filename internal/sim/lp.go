// Conservative parallel discrete-event simulation (PDES) on top of Engine.
//
// An LPGroup partitions one simulation into logical processes (LPs), each a
// plain *Engine with its own event heap running on its own goroutine, and
// advances them in bounded time windows (a null-message-free YAWNS-style
// barrier scheme, DESIGN.md §14):
//
//	round:
//	  base    = min over LPs of next-event time
//	  horizon = base + lookahead
//	  every LP with work below the horizon executes [its clock, horizon)
//	            in parallel
//	  barrier; cross-LP messages buffered in per-sender outboxes are merged
//	            into destination heaps, ordered by (at, pri, seq)
//
// The scheme is safe — no LP ever executes an event before a message that
// should precede it can still arrive — because every cross-LP interaction
// goes through the simulated network, whose minimum link latency is the
// lookahead L: an event executed in a window based at T fires at t >= T, so
// any message it sends arrives at t+L >= T+L = horizon, which no LP has
// reached. flush enforces this invariant with a hard panic rather than
// trusting callers.
//
// Determinism does not depend on worker count or goroutine interleaving:
// within a window LPs touch disjoint state, and merged deliveries carry a
// pri key — (source endpoint, per-source sequence) packed into one word —
// so every destination heap orders the same message set identically whether
// the simulation ran on one engine or sixteen. The serial engine uses the
// same (at, pri, seq) key, which is why `mdsim -exp dist` stdout is
// byte-identical at every -engine-workers count.
package sim

import (
	"fmt"
	"sync"
)

// Outbox buffers cross-LP sends made while its owning LP executes a window.
// Exactly one worker goroutine (the one running that LP's window) appends to
// it, and only the single-threaded barrier drains it, so it needs no lock.
// Entries are values; in steady state the backing array is reused and a send
// costs zero allocations.
type Outbox struct {
	buf []outboxEntry
}

type outboxEntry struct {
	at  Time
	pri uint64
	dst int32
	d   Delivery
}

// Send buffers a delivery for LP dst at time at with cross-engine priority
// pri (see Engine.AtPri). It must only be called from the owning LP's
// executing window.
func (o *Outbox) Send(dst int, at Time, pri uint64, d Delivery) {
	o.buf = append(o.buf, outboxEntry{at: at, pri: pri, dst: int32(dst), d: d})
}

// lpTask is one window-execution assignment handed to a pool worker.
type lpTask struct {
	eng     *Engine
	horizon Time
	cond    func() bool // non-nil only for LP 0
}

// LPGroup runs a set of engines as one simulation under conservative
// window synchronization. It implements Exec, so hosts written against the
// serial Engine drive a parallel cluster unchanged.
//
// LP 0 is the coordinator LP: Spawn targets it, and RunWhile conditions may
// read only state owned by it (the other LPs legitimately run ahead of the
// condition flip, up to the window horizon — their state is only coherent to
// an outside observer after Run drains the group).
type LPGroup struct {
	lps       []*Engine
	outboxes  []Outbox
	lookahead Duration
	workers   int

	work   chan lpTask
	wg     sync.WaitGroup
	closed bool

	horizon  Time // horizon of the round in flight, for flush's invariant check
	condStop bool // LP 0's window stopped on its condition this round

	// TraceWindow, when non-nil, is called at the start of every round with
	// the round's base time and horizon. The LP-window property test uses it
	// (together with flush's always-on invariant) to assert that no event
	// executes before a lower-timestamp cross-LP message could reach it.
	TraceWindow func(base, horizon Time)
}

// NewLPGroup assembles engines into a conservatively synchronized group.
// lookahead must be strictly positive — it is the minimum virtual-time
// distance of any cross-LP interaction (the minimum simulated link latency),
// and with zero lookahead the window [base, base) is empty: conservative
// sync cannot make progress (the classic zero-lookahead deadlock). workers
// is the number of pool goroutines that execute LP windows; it is clamped
// to [1, len(lps)].
func NewLPGroup(lps []*Engine, lookahead Duration, workers int) (*LPGroup, error) {
	if len(lps) == 0 {
		return nil, fmt.Errorf("sim: LPGroup needs at least one engine")
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: conservative parallel sync needs positive lookahead, got %v (a zero-latency link would deadlock the window scheduler)", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(lps) {
		workers = len(lps)
	}
	g := &LPGroup{
		lps:       lps,
		outboxes:  make([]Outbox, len(lps)),
		lookahead: lookahead,
		workers:   workers,
		work:      make(chan lpTask, len(lps)),
	}
	for i := 0; i < workers; i++ {
		go g.worker()
	}
	return g, nil
}

// Close shuts down the worker pool. The group must be idle (no round in
// flight); it is safe to call twice.
func (g *LPGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.work)
}

// Lookahead reports the group's synchronization lookahead.
func (g *LPGroup) Lookahead() Duration { return g.lookahead }

// Workers reports the pool size actually in use.
func (g *LPGroup) Workers() int { return g.workers }

// LP returns the i'th engine.
func (g *LPGroup) LP(i int) *Engine { return g.lps[i] }

// Outbox returns LP i's cross-LP send buffer. The network layer binds each
// endpoint's sends to its host LP's outbox.
func (g *LPGroup) Outbox(i int) *Outbox { return &g.outboxes[i] }

// Spawn starts a process on the coordinator LP (LP 0).
func (g *LPGroup) Spawn(name string, fn func(p *Proc)) *Proc {
	return g.lps[0].Spawn(name, fn)
}

// Now returns the coordinator LP's clock. Between rounds the other LPs may
// legitimately be ahead (see NowMax); host code that interleaves with the
// simulation — stat reads, follow-up spawns — observes LP 0 time, exactly
// as it would the single clock of a serial engine.
func (g *LPGroup) Now() Time { return g.lps[0].Now() }

// NowMax returns the maximum LP clock: the earliest instant no LP has
// executed past. Crash cuts in parallel mode must be taken at or after it.
func (g *LPGroup) NowMax() Time {
	max := g.lps[0].Now()
	for _, e := range g.lps[1:] {
		if t := e.Now(); t > max {
			max = t
		}
	}
	return max
}

// Executed sums dispatched-event counts across LPs (the work unit of
// bench's units_per_host_s).
func (g *LPGroup) Executed() uint64 {
	var n uint64
	for _, e := range g.lps {
		n += e.Executed()
	}
	return n
}

// Pending sums queued events across LPs.
func (g *LPGroup) Pending() int {
	n := 0
	for _, e := range g.lps {
		n += e.Pending()
	}
	return n
}

// Align advances every idle LP clock to the maximum LP clock and returns
// it. NewDist calls it once after per-node setup so all LPs share an epoch;
// AdvanceTo panics if any LP still has pending events.
func (g *LPGroup) Align() Time {
	t := g.NowMax()
	for _, e := range g.lps {
		e.AdvanceTo(t)
	}
	return t
}

// Run executes rounds until every LP's queue is drained.
func (g *LPGroup) Run() { g.runLoop(maxTime, nil) }

// RunUntil executes rounds for events with timestamps <= limit, then stops,
// marking every LP halted exactly like the serial Engine's RunUntil (crash
// snapshots rely on the halted guard catching stray scheduling).
func (g *LPGroup) RunUntil(limit Time) { g.runLoop(limit, nil) }

// RunWhile executes rounds for as long as cond() holds. cond is evaluated
// on the coordinator between rounds and by LP 0's window before each of its
// events — it must depend only on LP 0 state. When it flips, LP 0 stops at
// exactly the same event boundary the serial engine would; other LPs finish
// their current window (bounded overshoot, invisible to LP 0 observables).
func (g *LPGroup) RunWhile(cond func() bool) { g.runLoop(maxTime, cond) }

// runLoop is the coordinator: plan a window, execute it in parallel,
// barrier, merge cross-LP messages, repeat. On return it stops every LP's
// idle carriers, as Engine.run does.
func (g *LPGroup) runLoop(limit Time, cond func() bool) {
	for _, e := range g.lps {
		e.halted = false
	}
	defer func() {
		for _, e := range g.lps {
			e.stopIdle()
		}
	}()
	g.condStop = false
	for {
		if cond != nil && !cond() {
			return
		}
		base, ok := g.minNextAt()
		if !ok {
			return // fully drained; outboxes are empty between rounds
		}
		if base > limit {
			for _, e := range g.lps {
				e.halted = true
			}
			return
		}
		horizon := base + g.lookahead
		// RunUntil semantics are inclusive of limit: cap the window at
		// limit+1 so events at exactly limit still execute (runWindow's
		// bound is strict).
		if m := limit + 1; horizon > m {
			horizon = m
		}
		g.horizon = horizon
		if g.TraceWindow != nil {
			g.TraceWindow(base, horizon)
		}
		g.executeWindows(horizon, cond)
		g.flush()
		if g.condStop {
			return
		}
	}
}

// executeWindows runs every LP that has work below horizon. Single-active-LP
// rounds (and workers == 1) run inline on the coordinator goroutine — no
// channel handoff — which keeps low-concurrency phases (setup, drain tails)
// from paying the pool's latency.
func (g *LPGroup) executeWindows(horizon Time, cond func() bool) {
	active := 0
	for _, e := range g.lps {
		if at, ok := e.NextAt(); ok && at < horizon {
			active++
		}
	}
	inline := g.workers == 1 || active <= 1
	for i, e := range g.lps {
		at, ok := e.NextAt()
		if !ok || at >= horizon {
			continue
		}
		c := cond
		if i != 0 {
			c = nil
		}
		if inline {
			if e.runWindow(horizon, c) {
				g.condStop = true
			}
			continue
		}
		g.wg.Add(1)
		g.work <- lpTask{eng: e, horizon: horizon, cond: c}
	}
	if !inline {
		g.wg.Wait()
	}
}

// worker executes window assignments. Only LP 0's task carries a condition,
// so condStop has a single writer per round; the WaitGroup barrier orders
// that write before the coordinator's read.
func (g *LPGroup) worker() {
	for t := range g.work {
		if t.eng.runWindow(t.horizon, t.cond) {
			g.condStop = true
		}
		g.wg.Done()
	}
}

// flush merges every buffered cross-LP message into its destination heap.
// It runs single-threaded at the barrier, in deterministic (sender LP,
// send order) sequence — though order cannot matter: each delivery's pri is
// unique, so heap order is a pure function of the message set. The horizon
// check is the conservative-sync safety invariant, kept as a hard assert:
// a delivery below the horizon could name an instant some LP already
// executed past.
func (g *LPGroup) flush() {
	for i := range g.outboxes {
		o := &g.outboxes[i]
		for j := range o.buf {
			en := &o.buf[j]
			if en.at < g.horizon {
				panic(fmt.Sprintf("sim: cross-LP delivery at %v violates window horizon %v (lookahead %v understates a link latency)", en.at, g.horizon, g.lookahead))
			}
			g.lps[en.dst].AtPri(en.at, en.pri, en.d)
			*en = outboxEntry{} // drop the Delivery reference
		}
		o.buf = o.buf[:0]
	}
}

// minNextAt reports the earliest queued event across all LPs.
func (g *LPGroup) minNextAt() (Time, bool) {
	var min Time
	ok := false
	for _, e := range g.lps {
		if at, has := e.NextAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}
