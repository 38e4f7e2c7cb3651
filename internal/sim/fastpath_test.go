package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// logDelivery is a network-style delivery that records itself.
type logDelivery struct {
	log  func(string)
	name string
}

func (d *logDelivery) Deliver() { d.log(d.name) }

// runProgram runs the seeded random engine program and returns its trace:
// one line per process resumption, callback and delivery, with the instant
// and Executed() at that point, and one per return of the driving loop.
// The program mixes plain sleeps (Sleep(0) among them), Mutex and CPU
// contention with quantum slicing, Completions fired from callbacks,
// AtPri deliveries and pri-0 callbacks at exactly a sleeper's wake
// instant, Sleep(0) behind a queued same-instant event, RunUntil limits
// falling inside sleeps, and a RunWhile condition flipped by a callback —
// at a sleeper's wake instant, or by an OnFire callback just before the
// sleep.
func runProgram(seed int64, fast bool) []string {
	e := NewEngine()
	e.SetFastPath(fast)
	var trace []string
	log := func(who string) {
		trace = append(trace, fmt.Sprintf("%d %s %d", e.Now(), who, e.Executed()))
	}
	rng := rand.New(rand.NewSource(seed))
	var mu Mutex
	cpu := CPU{Quantum: 3}
	stop := false
	var pri uint64
	for i := range 2 + rng.Intn(4) {
		prng := rand.New(rand.NewSource(rng.Int63()))
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			for range 40 {
				d := Time(prng.Intn(3))
				switch prng.Intn(9) {
				case 0:
					p.Sleep(d)
				case 1:
					mu.Lock(p)
					log(name + " locked")
					p.Sleep(d)
					mu.Unlock(e)
				case 2:
					cpu.Use(p, Time(1+prng.Intn(8)))
				case 3:
					c := NewCompletion()
					e.At(e.Now()+d, func() { log(name + " fires"); c.Fire(e) })
					c.Wait(p)
				case 4:
					pri++
					e.AtPri(e.Now()+d, pri, (&logDelivery{log, name + " delivery"}).Deliver)
					p.Sleep(d)
				case 5:
					e.At(e.Now()+d, func() { log(name + " callback") })
					p.Sleep(d)
				case 6:
					e.At(e.Now(), func() { log(name + " same-instant") })
					p.Sleep(0)
				case 7:
					e.At(e.Now()+d, func() { log(name + " stops"); stop = true })
					p.Sleep(d)
				case 8:
					c := NewCompletion()
					c.OnFire(func() { log(name + " stops on fire"); stop = true })
					c.Fire(e)
					p.Sleep(d)
				}
				log(name)
			}
		})
	}
	for e.Live() > 0 || e.Pending() > 0 {
		if rng.Intn(4) == 0 {
			stop = false
			e.RunWhile(func() bool { return !stop })
			log("RunWhile returns")
		} else {
			e.RunUntil(e.Now() + Time(rng.Intn(4)))
			log("RunUntil returns")
		}
	}
	return trace
}

// TestSleepFastPathMatchesParked is the differential test of Sleep's fast
// path: seeded random engine programs must give the same trace — every
// event's instant, what ran, and Executed() — with the fast path on as with
// every sleep parking.
func TestSleepFastPathMatchesParked(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		parked, fast := runProgram(seed, false), runProgram(seed, true)
		if i := firstDiff(parked, fast); i >= 0 {
			t.Fatalf("seed %d: traces differ at line %d:\nparked: %s\nfast:   %s\n(%d and %d lines)",
				seed, i, at(parked, i), at(fast, i), len(parked), len(fast))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(end)"
}

// TestAllocFreeSleepFastForward: a lone sleeper never parks. Each Sleep
// advances the clock and counts one event, allocates nothing and pushes
// nothing onto the heap.
func TestAllocFreeSleepFastForward(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)
		allocs = testing.AllocsPerRun(200, func() { p.Sleep(1) })
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("a fast-forwarded Sleep allocates %.1f objects, want 0", allocs)
	}
	if cap(e.heap) != 0 {
		t.Errorf("a lone sleeper pushed events onto the heap (capacity %d)", cap(e.heap))
	}
	// The start event, the first sleep, AllocsPerRun's warm-up run and its
	// 200 measured ones.
	if e.Executed() != 203 || e.Now() != 202 {
		t.Errorf("Executed() = %d at %v, want 203 at 202", e.Executed(), e.Now())
	}
}

// TestNestedRunPanics: running an engine from inside its own dispatch — a
// process or a callback calling Run, RunUntil or RunWhile — panics with a
// message that says so, and the engine runs normally afterwards.
func TestNestedRunPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(e *Engine)
	}{
		{"process Run", func(e *Engine) { e.Spawn("nester", func(*Proc) { e.Run() }) }},
		{"callback RunUntil", func(e *Engine) { e.At(1, func() { e.RunUntil(5) }) }},
		{"process RunWhile", func(e *Engine) {
			e.Spawn("nester", func(p *Proc) {
				p.Sleep(2)
				e.RunWhile(func() bool { return true })
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.arm(e)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				e.Run()
				return "no panic"
			}()
			if !strings.Contains(msg, "called while the same engine is dispatching") {
				t.Fatalf("nested run: %s", msg)
			}
			var fired []Time
			e.At(e.Now()+3, func() { fired = append(fired, e.Now()) })
			e.Spawn("after", func(p *Proc) {
				p.Sleep(4)
				fired = append(fired, p.Now())
			})
			e.Run()
			if base := fired[0] - 3; !slices.Equal(fired, []Time{base + 3, base + 4}) {
				t.Fatalf("after the panic the engine fired at %v", fired)
			}
		})
	}
}
