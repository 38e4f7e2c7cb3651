package sim

import "testing"

// Alloc-regression guards for the engine hot path: the steady-state
// schedule/fire/wake cycle must allocate nothing. Each guard warms its rig
// up first so one-time slice growth (heap, fast queue, waiter lists) is
// excluded, then asserts that testing.AllocsPerRun observes zero mallocs.
// CI runs these under both the standard and race jobs.

// TestAllocFreeAtRunCycle: At with a pre-built callback plus the dispatch
// loop allocates nothing once the queues reach capacity.
func TestAllocFreeAtRunCycle(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cycle := func() {
		e.At(e.Now()+1, fn)
		e.RunUntil(e.Now() + 1)
	}
	cycle() // warm-up: grow the heap slice
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("At/Run cycle allocates %.1f objects per event, want 0", n)
	}
}

// TestAllocFreeSleepWake: a daemon that sleeps in a loop exercises the
// closure-free proc wake path (heap push with proc pointer, pop, two
// coroutine switches). Steady state must be allocation-free.
func TestAllocFreeSleepWake(t *testing.T) {
	e := NewEngine()
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	advance := func() { e.RunUntil(e.Now() + 1) }
	advance() // warm-up: start event, first sleep
	if n := testing.AllocsPerRun(200, advance); n != 0 {
		t.Fatalf("Sleep/wake round-trip allocates %.1f objects, want 0", n)
	}
}

// TestAllocFreeContendedWake: two processes ping-ponging over a contended
// CPU cover acquire/release, the waiter dequeue, and the same-instant fast
// queue. Steady state must be allocation-free.
func TestAllocFreeContendedWake(t *testing.T) {
	e := NewEngine()
	var cpu CPU
	for i := 0; i < 2; i++ {
		e.Spawn("worker", func(p *Proc) {
			for {
				cpu.Use(p, DefaultQuantum)
			}
		})
	}
	advance := func() { e.RunUntil(e.Now() + DefaultQuantum) }
	advance() // warm-up: start events, waiter list growth
	if n := testing.AllocsPerRun(100, advance); n != 0 {
		t.Fatalf("contended CPU wake cycle allocates %.1f objects, want 0", n)
	}
}

// TestAllocFreeCompletionFire: firing a Reset-reused completion with one
// parked waiter allocates nothing (waiter slice capacity is retained across
// Fire/Reset).
func TestAllocFreeCompletionFire(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	e.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			c.Reset()
		}
	})
	fireFn := func() { c.Fire(e) }
	cycle := func() {
		e.At(e.Now()+1, fireFn)
		e.RunUntil(e.Now() + 1)
	}
	cycle() // warm-up with the reused callback
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("Completion Fire/Reset cycle allocates %.1f objects, want 0", n)
	}
}

// TestSpawnReusesCarriers: a running process that spawns short-lived
// children costs at most the child's Proc per spawn once warm — each child
// runs on the carrier the previous one parked, not on a new coroutine.
func TestSpawnReusesCarriers(t *testing.T) {
	e := NewEngine()
	child := func(p *Proc) {}
	var allocs float64
	e.Spawn("parent", func(p *Proc) {
		spawn := func() {
			e.Spawn("child", child)
			p.Sleep(1) // the child runs and finishes meanwhile
		}
		spawn() // warm-up: the first carrier, queue growth
		allocs = testing.AllocsPerRun(200, spawn)
	})
	e.Run()
	if allocs > 1 {
		t.Fatalf("spawning a short-lived child allocates %.1f objects, want at most 1 (its Proc)", allocs)
	}
}
