package core

import "fmt"

// DebugDeps describes the remaining dependency state (test diagnostics).
func (s *SoftUpdates) DebugDeps() []string {
	var out []string
	for b, d := range s.deps {
		desc := fmt.Sprintf("frag %d:", b.Frag)
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
