package sim

// Halted reports whether the last RunUntil stopped at its limit (leaving
// events queued) rather than draining the queue. A halted engine rejects new
// events until Run/RunUntil/RunWhile is called again.
func (e *Engine) Halted() bool { return e.halted }

// TryLock acquires m if free and reports whether it did.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}
