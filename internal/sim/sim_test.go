package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 || Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatalf("unit constants wrong: %d %d %d", Second, Millisecond, Microsecond)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Errorf("Milliseconds() = %v, want 2.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
}

func TestEventTieBreakBySchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*Millisecond {
		t.Errorf("woke at %v, want 42ms", wake)
	}
	if e.Live() != 0 {
		t.Errorf("Live() = %d after Run, want 0", e.Live())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10 * Millisecond)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("nondeterministic length")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("nondeterministic interleaving: %v vs %v", got, first)
				}
			}
		}
	}
	// Same wake times resolve in spawn order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("interleaving %v, want %v", first, want)
		}
	}
}

func TestRunUntilStopsAndPreservesQueue(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("continuing after RunUntil fired %v", fired)
	}
}

func TestCompletion(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	var woke [2]Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woke[i] = p.Now()
		})
	}
	e.At(5*Millisecond, func() { c.Fire(e) })
	e.Run()
	for i, w := range woke {
		if w != 5*Millisecond {
			t.Errorf("waiter %d woke at %v, want 5ms", i, w)
		}
	}
	if c.FiredAt != 5*Millisecond {
		t.Errorf("FiredAt = %v", c.FiredAt)
	}
}

func TestCompletionWaitAfterFire(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	c.Fire(e)
	done := false
	e.Spawn("late", func(p *Proc) {
		c.Wait(p) // must not block
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("Wait after Fire blocked forever")
	}
}

func TestCompletionDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	c.Fire(e)
	defer func() {
		if recover() == nil {
			t.Error("second Fire did not panic")
		}
	}()
	c.Fire(e)
}

// A callback that recycles its own completion (Reset, then a new
// registration, as a pooled request's owner would) before Fire returns
// must panic: Fire would otherwise drop the new callback with the list it
// has just run.
func TestCompletionReusedByOwnCallbackPanics(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	c.OnFire(func() {
		c.Reset()
		c.OnFire(func() {})
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "reused by one of its own callbacks") {
			t.Errorf("Fire after a callback re-registered: recovered %v, want the reuse panic", r)
		}
	}()
	c.Fire(e)
}

func TestMutexFIFO(t *testing.T) {
	e := NewEngine()
	var m Mutex
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("locker", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond) // stagger arrival: 0, 1, 2
			m.Lock(p)
			order = append(order, i)
			p.Sleep(10 * Millisecond)
			m.Unlock(e)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("mutex handoff not FIFO: %v", order)
	}
	if e.Now() != 30*Millisecond {
		t.Errorf("critical sections overlapped: end time %v, want 30ms", e.Now())
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEngine()
	var m Mutex
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock(e)
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
}

func TestUnlockUnheldPanics(t *testing.T) {
	e := NewEngine()
	var m Mutex
	defer func() {
		if recover() == nil {
			t.Error("Unlock of unheld mutex did not panic")
		}
	}()
	m.Unlock(e)
}

// TestMutexHolder: the process Lock returns to holds the mutex, and no
// other process does.
func TestMutexHolder(t *testing.T) {
	e := NewEngine()
	var m Mutex
	other := e.Spawn("other", func(p *Proc) {})
	e.Spawn("locker", func(p *Proc) {
		if m.HeldBy(p) {
			t.Error("HeldBy before Lock")
		}
		m.Lock(p)
		if !m.HeldBy(p) || m.HeldBy(other) || m.HeldBy(nil) {
			t.Errorf("after Lock: HeldBy(locker)=%v HeldBy(other)=%v HeldBy(nil)=%v",
				m.HeldBy(p), m.HeldBy(other), m.HeldBy(nil))
		}
		m.Unlock(e)
		if m.HeldBy(p) {
			t.Error("HeldBy after the last Unlock")
		}
	})
	e.Run()
}

// TestMutexHandoffHolder: Unlock hands the mutex to the oldest waiter,
// which holds it from that instant — before it resumes — while the
// process that unlocked holds it no more; the last Unlock leaves no
// holder.
func TestMutexHandoffHolder(t *testing.T) {
	e := NewEngine()
	var m Mutex
	var waiters [2]*Proc
	e.Spawn("first", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10)
		m.Unlock(e)
		if m.HeldBy(p) || !m.HeldBy(waiters[0]) || m.HeldBy(waiters[1]) {
			t.Errorf("after the hand-off: HeldBy(first)=%v HeldBy(w0)=%v HeldBy(w1)=%v",
				m.HeldBy(p), m.HeldBy(waiters[0]), m.HeldBy(waiters[1]))
		}
	})
	for i := range waiters {
		waiters[i] = e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i + 1))
			m.Lock(p)
			if !m.HeldBy(p) {
				t.Errorf("w%d resumed from Lock without holding the mutex", i)
			}
			p.Sleep(10)
			m.Unlock(e)
		})
	}
	e.Run()
	for i, w := range waiters {
		if m.HeldBy(w) {
			t.Errorf("w%d holds the mutex after the last Unlock", i)
		}
	}
	if !m.TryLock() {
		t.Fatal("TryLock failed after the last Unlock")
	}
}

// TestMutexRelockPanics: a process that locks a mutex it holds would wait
// on itself forever; Lock panics instead, naming the process.
func TestMutexRelockPanics(t *testing.T) {
	e := NewEngine()
	var m Mutex
	e.Spawn("op123", func(p *Proc) {
		m.Lock(p)
		m.Lock(p)
	})
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Run()
		return "no panic"
	}()
	if want := `sim: process "op123" locks a Mutex it holds`; !strings.Contains(msg, want) {
		t.Fatalf("re-lock: %s, want %s", msg, want)
	}
}

func TestCPUSharing(t *testing.T) {
	// Two processes each needing 100ms of CPU on one processor must take
	// 200ms of virtual time in total, finishing near each other
	// (round-robin), not back to back.
	e := NewEngine()
	cpu := &CPU{Quantum: 10 * Millisecond}
	var fin [2]Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			cpu.Use(p, 100*Millisecond)
			fin[i] = p.Now()
		})
	}
	e.Run()
	if e.Now() != 200*Millisecond {
		t.Fatalf("two 100ms jobs on one CPU ended at %v, want 200ms", e.Now())
	}
	gap := fin[1] - fin[0]
	if gap < 0 {
		gap = -gap
	}
	if gap > 20*Millisecond {
		t.Errorf("round-robin finish gap %v too large (fin=%v)", gap, fin)
	}
	if cpu.Used != 200*Millisecond {
		t.Errorf("CPU.Used = %v, want 200ms", cpu.Used)
	}
}

func TestCPUZeroUse(t *testing.T) {
	e := NewEngine()
	cpu := &CPU{}
	e.Spawn("w", func(p *Proc) { cpu.Use(p, 0) })
	e.Run()
	if e.Now() != 0 || cpu.Used != 0 {
		t.Errorf("zero-duration Use advanced time to %v", e.Now())
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond)
			wg.Done(e)
		})
	}
	var joined Time
	e.Spawn("join", func(p *Proc) {
		wg.Wait(p)
		joined = p.Now()
	})
	e.Run()
	if joined != 3*Millisecond {
		t.Errorf("joined at %v, want 3ms", joined)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	ok := false
	e.Spawn("join", func(p *Proc) {
		wg.Wait(p)
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

// Property: for any batch of sleep durations, each process wakes exactly at
// its requested instant, and total simulated time equals the max duration.
func TestSleepPropertyQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%8) + 1
		e := NewEngine()
		durs := make([]Time, count)
		wakes := make([]Time, count)
		for i := 0; i < count; i++ {
			durs[i] = Time(rng.Int63n(int64(Second)))
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(durs[i])
				wakes[i] = p.Now()
			})
		}
		e.Run()
		var max Time
		for i := 0; i < count; i++ {
			if wakes[i] != durs[i] {
				return false
			}
			if durs[i] > max {
				max = durs[i]
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CPU.Used always equals the sum of requested bursts, and elapsed
// virtual time equals that sum when a single CPU serves all processes.
func TestCPUConservationQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%6) + 1
		e := NewEngine()
		cpu := &CPU{Quantum: Millisecond}
		var want Time
		for i := 0; i < count; i++ {
			d := Time(rng.Int63n(int64(50 * Millisecond)))
			want += d
			e.Spawn("p", func(p *Proc) { cpu.Use(p, d) })
		}
		e.Run()
		return cpu.Used == want && e.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	var childDone Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childDone = c.Now()
		})
		p.Sleep(5 * Millisecond)
	})
	e.Run()
	if childDone != 2*Millisecond {
		t.Errorf("child finished at %v, want 2ms", childDone)
	}
}

func TestCallbackSpawnsAndFires(t *testing.T) {
	// Engine-context callbacks must be able to fire completions that wake
	// processes (this is the disk-completion path).
	e := NewEngine()
	c := NewCompletion()
	var woke Time
	e.Spawn("io", func(p *Proc) {
		c.Wait(p)
		woke = p.Now()
	})
	e.At(7*Millisecond, func() { c.Fire(e) })
	e.Run()
	if woke != 7*Millisecond {
		t.Errorf("woke at %v, want 7ms", woke)
	}
}

func TestRunWhileStopsOnCondition(t *testing.T) {
	e := NewEngine()
	count := 0
	// A self-rescheduling event (like the syncer daemon) would run forever
	// under Run; RunWhile must stop when the condition goes false.
	var tick func()
	tick = func() {
		count++
		e.At(e.Now()+Millisecond, tick)
	}
	e.At(e.Now()+Millisecond, tick)
	e.RunWhile(func() bool { return count < 10 })
	if count != 10 {
		t.Fatalf("ran %d ticks, want 10", count)
	}
	if e.Pending() == 0 {
		t.Fatal("pending event chain was dropped")
	}
}

func TestOnFireBeforeWaiters(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	var order []string
	c.OnFire(func() { order = append(order, "callback") })
	e.Spawn("w", func(p *Proc) {
		c.Wait(p)
		order = append(order, "waiter")
	})
	e.At(Millisecond, func() { c.Fire(e) })
	e.Run()
	if len(order) != 2 || order[0] != "callback" || order[1] != "waiter" {
		t.Fatalf("order %v, want callback before waiter", order)
	}
}

func TestOnFireAfterFiredRunsImmediately(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	c.Fire(e)
	ran := false
	c.OnFire(func() { ran = true })
	if !ran {
		t.Fatal("OnFire on fired completion did not run immediately")
	}
}

func TestProcPanicPropagatesWithContext(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomber", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "bomber") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic lacks context: %v", r)
		}
	}()
	e.Run()
}

// TestProcPanicCarriesStack: the panic Run's caller recovers names the
// process and carries the stack the process died on — the frame that
// panicked, not just the dispatch loop that resumed it.
func TestProcPanicCarriesStack(t *testing.T) {
	e := NewEngine()
	e.Spawn("idler", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("bomber", func(p *Proc) {
		p.Sleep(Millisecond)
		explode()
	})
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`process "bomber" panicked: boom`, "sim.explode", "goroutine "} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message lacks %q:\n%s", want, msg)
			}
		}
		if e.Now() != Millisecond {
			t.Errorf("panic surfaced at %v, want the instant the process died (1 ms)", e.Now())
		}
	}()
	e.Run()
	t.Fatal("Run returned; the panic was swallowed")
}

//go:noinline
func explode() { panic("boom") }

// TestDroppedEngineWithParkedProcs: freezing a simulation mid-flight leaves
// processes parked for good. Dropping such an engine must neither block
// (nobody waits on a parked process) nor panic, and a second engine built
// afterwards is unaffected.
func TestDroppedEngineWithParkedProcs(t *testing.T) {
	freeze := func() int {
		e := NewEngine()
		var never Completion
		for i := 0; i < 100; i++ {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
			e.Spawn("waiter", func(p *Proc) { never.Wait(p) })
		}
		e.RunUntil(Millisecond)
		return e.Live()
	}
	if live := freeze(); live != 200 {
		t.Fatalf("%d live processes at the freeze, want 200", live)
	}
	runtime.GC() // the dropped engine and its parked coroutines are unreachable now
	e := NewEngine()
	done := false
	e.Spawn("after", func(p *Proc) { p.Sleep(Second); done = true })
	e.Run()
	if !done || e.Live() != 0 {
		t.Fatalf("engine after the drop: done=%v live=%d", done, e.Live())
	}
}

// TestStaleWakeOfFinishedProcessPanics: waking a process whose body has
// returned is a bookkeeping bug upstream. It panics naming the process
// instead of resuming whatever now runs on the carrier or counting the
// process finished twice (Live() would go negative).
func TestStaleWakeOfFinishedProcessPanics(t *testing.T) {
	e := NewEngine()
	q := e.Spawn("quick", func(p *Proc) {})
	e.At(5, func() { e.wake(q) })
	defer func() {
		msg, _ := recover().(string)
		if want := `sim: wake of finished process "quick"`; msg != want {
			t.Errorf("panic %q, want %q", msg, want)
		}
		if e.Live() != 0 {
			t.Errorf("Live() = %d, want 0", e.Live())
		}
	}()
	e.Run()
	t.Fatal("Run returned; the stale wake went unnoticed")
}

// TestRunStopsIdleCarriers: the carriers finished processes leave parked
// are stopped when Run returns, so a drained simulation holds no
// goroutines; a parked process keeps its own, as before.
func TestRunStopsIdleCarriers(t *testing.T) {
	e := NewEngine()
	base := runtime.NumGoroutine()
	var never Completion
	e.Spawn("waiter", func(p *Proc) { never.Wait(p) })
	for i := 0; i < 50; i++ {
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(Millisecond)
			p.Engine().Spawn("child", func(p *Proc) { p.Sleep(Millisecond) })
		})
	}
	e.Run()
	if got := runtime.NumGoroutine(); got != base+1 {
		t.Errorf("%d goroutines after Run, want %d: the baseline plus the parked waiter", got, base+1)
	}
}
