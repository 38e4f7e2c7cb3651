package sim

// Halted reports whether the last RunUntil stopped at its limit (leaving
// events queued) rather than draining the queue. A halted engine rejects new
// events until Run/RunUntil/RunWhile is called again.
func (e *Engine) Halted() bool { return e.halted }

// tryLocker is the holder TryLock records: the tests call it outside any
// process.
var tryLocker = &Proc{Name: "TryLock"}

// TryLock acquires m if free and reports whether it did.
func (m *Mutex) TryLock() bool {
	if m.holder != nil {
		return false
	}
	m.holder = tryLocker
	return true
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.fast) - e.fastHead }

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.eng }

// SetFastPath turns Sleep's fast path (wakeIsNext) on or off; off, every
// sleep parks and is woken by the dispatch loop, as before the fast path.
func (e *Engine) SetFastPath(on bool) { e.parkAlways = !on }
