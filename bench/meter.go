package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"metaupdate/internal/sim"
)

// rep is what one repetition of one workload measured. The virt and exact
// maps are pure functions of (code, seed) and must repeat bit for bit; the
// host fields carry the sandbox's noise.
type rep struct {
	setupS     float64 // host seconds outside the timed phases
	wallS      float64 // host seconds inside the timed phases, summed over cells
	units      uint64  // engine events (crash-sweep: crash states checked)
	allocBytes uint64  // runtime.MemStats.TotalAlloc delta over the timed phases
	attempted  int64
	failed     int64

	virt  map[string]float64 // v_* end-to-end metrics defined on the workload
	exact map[string]float64 // per-layer metrics on the virtual clock, and exact counts
	host  map[string]float64 // per-layer metrics on the host clock

	// standIn holds what a driver run prints under the names of the v_*
	// metrics the workload does not define (see definedOn); it reaches
	// neither results.json nor -compare.
	standIn map[string]float64

	errs []string // failed output checks
}

func newRep() *rep {
	return &rep{virt: map[string]float64{}, exact: map[string]float64{}, host: map[string]float64{}, standIn: map[string]float64{}}
}

func (r *rep) failf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// meter times the phases of one repetition. Every workload drives its
// cells through it, so set-up, timed and check time are split the same way
// everywhere. With tr and prof nil (an untraced repetition) it only reads
// the clock.
type meter struct {
	r        *rep
	workload string
	tr       *tracer   // spans, traced repetitions only
	prof     *profiler // CPU profile of the timed phases, traced repetitions only
	deadline time.Duration
}

// clock reads a cell's virtual time and executed-event count; nil before
// the cell's machine exists.
type clock func() (sim.Time, uint64)

// cell is one (scheme, rate) simulation inside a repetition.
type cell struct {
	m     *meter
	name  string
	clock clock
	span  *span
}

// watched runs fn under the watchdog and returns what it panicked with, if
// anything. Code that does not return within the deadline (a livelocked
// engine spins forever) is reported and the process exits, because the
// spinning goroutine cannot be stopped and would poison every later timing.
func watched(name string, deadline time.Duration, fn func()) (panicked any) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case p := <-done:
		return p
	case <-timer.C:
		watchdogExit(name, deadline)
		return nil
	}
}

// cell runs fn as one cell under the watchdog.
func (m *meter) cell(name string, fn func(c *cell)) {
	c := &cell{m: m, name: name}
	c.span = m.tr.begin(nil, m.workload+"/"+name, "cell", nil)
	if p := watched(m.workload+"/"+name, m.deadline, func() { fn(c) }); p != nil {
		m.r.failf("%s/%s: panic: %v", m.workload, name, p)
	}
	m.tr.end(c.span, c.clock)
}

// setup, check: untimed phases. Their host time is set-up time, which the
// repetition takes as everything outside its timed phases.
func (c *cell) setup(fn func()) { c.untimed("setup", fn) }
func (c *cell) check(fn func()) { c.untimed("check", fn) }

func (c *cell) untimed(phase string, fn func()) {
	sp := c.m.tr.begin(c.span, phase, "phase", c.clock)
	fn()
	c.m.tr.end(sp, c.clock)
}

// timed runs the cell's timed phase: run, then settle (flush what the run
// left dirty). Units are the engine events executed in between unless the
// workload counts its own (crash-sweep).
func (c *cell) timed(run, settle func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var ev0 uint64
	if c.clock != nil {
		_, ev0 = c.clock()
	}
	c.m.prof.cellStart()
	t0 := time.Now()
	sp := c.m.tr.begin(c.span, "run", "phase", c.clock)
	run()
	c.m.tr.end(sp, c.clock)
	if settle != nil {
		sp = c.m.tr.begin(c.span, "settle", "phase", c.clock)
		settle()
		c.m.tr.end(sp, c.clock)
	}
	c.m.r.wallS += time.Since(t0).Seconds()
	c.m.prof.cellStop()
	if c.clock != nil {
		_, ev1 := c.clock()
		c.m.r.units += ev1 - ev0
	}
	runtime.ReadMemStats(&m1)
	c.m.r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

// profiler collects one CPU profile per timed phase; the profiles are
// parsed and summed when the repetition ends, so set-up and check code
// never reaches the attribution. Stopping a profile blocks for 100-200 ms
// (runtime/pprof polls its buffer every 100 ms), which a traced repetition
// pays once per cell, outside its timed phases. A nil profiler (an untraced
// repetition) does nothing.
type profiler struct {
	cur  *bytes.Buffer
	done [][]byte
}

func (p *profiler) cellStart() {
	if p == nil {
		return
	}
	p.cur = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(p.cur); err != nil {
		p.cur = nil
	}
}

func (p *profiler) cellStop() {
	if p == nil || p.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	p.done = append(p.done, p.cur.Bytes())
	p.cur = nil
}
