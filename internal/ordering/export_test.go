package ordering

import "fmt"

// NewSequenced returns the protocol over two given writes, for a test that
// records them.
var NewSequenced = newSequenced

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

// DebugDeps describes the remaining dependency state of the buffers the
// cache maps (test diagnostics).
func (s *SoftUpdates) DebugDeps() []string {
	var out []string
	for f := range int64(s.fs.Superblock().TotalFrags) {
		var d *bufDep
		if b := s.cache().Lookup(f); b != nil {
			d = s.dep(b)
		}
		if d == nil {
			continue
		}
		desc := fmt.Sprintf("frag %d:", f)
		for ino, idep := range d.inodeDeps {
			desc += fmt.Sprintf(" idep(%d w=%v adds=%d allocs=%d)", ino, idep.written, len(idep.waitingAdds), len(idep.waitingAllocs))
		}
		if len(d.allocs) > 0 {
			desc += fmt.Sprintf(" allocs=%d", len(d.allocs))
			for _, ad := range d.allocs {
				desc += fmt.Sprintf("[ptr@%d init=%v ready=%v waits=%d]", ad.ptrOff, ad.initDone, ad.ready(), len(ad.waitInodes))
			}
		}
		if len(d.initOf) > 0 {
			desc += fmt.Sprintf(" initOf=%d", len(d.initOf))
		}
		if len(d.adds) > 0 {
			desc += fmt.Sprintf(" adds=%d", len(d.adds))
		}
		if len(d.rems)+len(d.remsInFlight) > 0 {
			desc += " rems"
		}
		if len(d.frees)+len(d.freesInFlight) > 0 {
			desc += " frees"
		}
		out = append(out, desc)
	}
	return out
}

// Used reports bytes currently held by live NVRAM records.
func (s *NVRAM) Used() int { return s.used }
