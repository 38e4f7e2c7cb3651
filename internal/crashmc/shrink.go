package crashmc

import "metaupdate/internal/fsck"

// shrink reduces a violating crash state to a minimal repro: first a binary
// search for the shortest completed-write prefix that still violates, then
// greedy delta-debugging over the surviving writes, always removing a write
// together with its transitive dependents so every trial stays closed under
// the recorded barrier relation.
//
// The result is a diagnostic, not a certificate of minimality: the recorded
// predecessor edges only cover requests pending at submission time (older
// ones were already durable), so an already-completed ordering dependency
// can be cut without being noticed. In practice the repro still names the
// handful of writes whose ordering the scheme got wrong.
func (r *Recorder) shrink(v Violation, cfg Config, doneOrder []*node) *Repro {
	trials := 0
	// One scratch image for every trial: the shrinker is single-threaded,
	// so reusing the buffer (like the checker pool's per-worker scratch)
	// avoids an image-sized allocation per candidate.
	img := make([]byte, len(r.base))
	findings := func(writes []*node, partial *node, psec int) []string {
		copy(img, r.base)
		for _, n := range writes {
			n.apply(img)
		}
		if partial != nil {
			partial.applyPrefix(img, psec)
		}
		if cfg.Recover != nil {
			if f := runRecover(cfg.Recover, img); f != "" {
				return []string{f}
			}
		}
		return checkImage(fsck.Bytes(img), cfg.ExtraCheck)
	}
	violates := func(writes []*node, partial *node, psec int) bool {
		if trials >= shrinkTrials {
			return false // out of budget: refuse the reduction, keep going
		}
		trials++
		return len(findings(writes, partial, psec)) > 0
	}

	subset := make([]*node, 0, len(v.Applied))
	for _, w := range v.Applied {
		if n := r.nodes[w.ID]; n != nil {
			subset = append(subset, n)
		}
	}
	var partial *node
	psec := 0
	if v.Partial != nil {
		partial = r.nodes[v.Partial.ID]
		psec = v.PartialSectors
	}

	// Phase 1: smallest completed prefix. A prefix of the completion order
	// is trivially closed (every predecessor completed earlier).
	if v.Completed > len(doneOrder) {
		v.Completed = len(doneOrder)
	}
	lo, hi := 0, v.Completed
	for lo < hi {
		mid := (lo + hi) / 2
		if violates(append(append([]*node(nil), doneOrder[:mid]...), subset...), partial, psec) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	writes := append(append([]*node(nil), doneOrder[:lo]...), subset...)

	// Phase 2: greedy removal, newest first, each write taken out with its
	// transitive dependents; iterate to a fixpoint.
	dependents := func(list []*node, victim *node) map[uint64]struct{} {
		drop := map[uint64]struct{}{victim.id: {}}
		for changed := true; changed; {
			changed = false
			for _, n := range list {
				if _, gone := drop[n.id]; gone {
					continue
				}
				for _, p := range n.effPreds {
					if _, gone := drop[p]; gone {
						drop[n.id] = struct{}{}
						changed = true
						break
					}
				}
			}
		}
		return drop
	}
	without := func(list []*node, drop map[uint64]struct{}) []*node {
		out := make([]*node, 0, len(list))
		for _, n := range list {
			if _, gone := drop[n.id]; !gone {
				out = append(out, n)
			}
		}
		return out
	}
	partialDropped := func(drop map[uint64]struct{}) bool {
		if partial == nil {
			return false
		}
		for _, p := range partial.effPreds {
			if _, gone := drop[p]; gone {
				return true
			}
		}
		return false
	}
	for improved := true; improved && trials < shrinkTrials; {
		improved = false
		if partial != nil && violates(writes, nil, 0) {
			partial, psec = nil, 0
			improved = true
		}
		for i := len(writes) - 1; i >= 0 && trials < shrinkTrials; i-- {
			drop := dependents(writes, writes[i])
			cand := without(writes, drop)
			cp, cs := partial, psec
			if partialDropped(drop) {
				cp, cs = nil, 0
			}
			if violates(cand, cp, cs) {
				writes, partial, psec = cand, cp, cs
				improved = true
				break
			}
		}
	}
	// Shrink the partial's committed sector count too.
	if partial != nil {
		for s := 1; s < psec; s++ {
			if violates(writes, partial, s) {
				psec = s
				break
			}
		}
	}

	// Re-materialize the final state for its findings.
	rep := &Repro{Findings: findings(writes, partial, psec), Trials: trials}
	for _, n := range writes {
		rep.Writes = append(rep.Writes, WriteInfo{ID: n.id, LBN: n.lbn, Sectors: n.count})
	}
	if partial != nil {
		rep.Partial = &WriteInfo{ID: partial.id, LBN: partial.lbn, Sectors: partial.count}
		rep.PartialSectors = psec
	}
	return rep
}
