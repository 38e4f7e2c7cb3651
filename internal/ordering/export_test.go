package ordering

// PrevImages calls f with the newest journaled image of every buffer an
// unretired transaction waits on, by home fragment.
func (o *Journal) PrevImages(f func(frag int64, img []byte)) {
	for frag, pv := range o.prev {
		f(frag, pv.img)
	}
}

// Slabs reports the previous-image slabs in the pool and in use.
func (o *Journal) Slabs() (pooled, held int) { return len(o.slabs), len(o.prev) }

// DrainNotices returns and clears the delivered notifications.
func (o *Async) DrainNotices() []Notice {
	n := o.notices
	o.notices = nil
	return n
}

// PendingOps reports operations still inside the in-flight window.
func (o *Async) PendingOps() int { return len(o.pending) }
