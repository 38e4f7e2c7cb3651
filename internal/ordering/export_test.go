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

// KeepNotices logs every notification delivered from now on, in delivery
// order, into the returned slice.
func (o *Async) KeepNotices() *[]Notice {
	var log []Notice
	o.OnNotice = func(n Notice) { log = append(log, n) }
	return &log
}

// PendingOps reports operations still inside the in-flight window.
func (o *Async) PendingOps() int { return len(o.pending) }
