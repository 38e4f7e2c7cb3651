package sim

import "testing"

// TestFastQueueCapacityShrinksAfterBurst pins the same-instant FIFO's shrink
// hysteresis: a one-off burst of same-instant events must not pin its peak
// backing array forever. After the burst drains, a steady one-event trickle
// walks the capacity down — first below half the peak, eventually to the
// shrinkMinCap floor — and once at the floor the trickle is allocation-free.
func TestFastQueueCapacityShrinksAfterBurst(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	const burst = 16 * shrinkMinCap
	for i := 0; i < burst; i++ {
		e.At(0, nop) // at == now, pri 0: fast-queue path
	}
	peak := cap(e.fast)
	if peak < burst {
		t.Fatalf("burst of %d events left fast capacity %d", burst, peak)
	}
	e.Run()
	trickle := func() { e.At(e.Now(), nop); e.Run() }
	for i := 0; cap(e.fast) > peak/2 && i < 4*peak; i++ {
		trickle()
	}
	if c := cap(e.fast); c > peak/2 {
		t.Fatalf("fast-queue capacity %d retained after burst peak %d; hysteresis shrink never fired", c, peak)
	}
	for i := 0; cap(e.fast) >= shrinkMinCap && i < 16*peak; i++ {
		trickle()
	}
	if c := cap(e.fast); c >= shrinkMinCap {
		t.Fatalf("fast-queue capacity %d never reached the %d floor", c, shrinkMinCap)
	}
	if n := testing.AllocsPerRun(200, trickle); n != 0 {
		t.Fatalf("steady-state trickle allocates %.1f objects per event, want 0", n)
	}
}
