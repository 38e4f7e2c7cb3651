package fsck

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"metaupdate/internal/ffs"
)

// BaselineDiff describes the first difference between two Baselines'
// derived state, or returns "" when they agree: the superblock, every
// inode record, the parse of every valid directory (a slot that stopped
// being one keeps a parse nothing reads), each sector's reverse-index
// entries compared as a multiset, and the merge artifacts.
func BaselineDiff(got, want *Baseline) string {
	if got.ok != want.ok {
		return fmt.Sprintf("ok %v, want %v", got.ok, want.ok)
	}
	if !want.ok {
		return ""
	}
	if got.sb != want.sb {
		return fmt.Sprintf("superblock %+v, want %+v", got.sb, want.sb)
	}
	for ino := 2; ino < int(want.sb.NInodes); ino++ {
		g, w := &got.st.inodes[ino], &want.st.inodes[ino]
		if g.alloc != w.alloc || g.ok != w.ok || g.ip != w.ip ||
			!slices.Equal(g.steps, w.steps) || !slices.Equal(g.deps, w.deps) {
			return fmt.Sprintf("inode %d: record %+v, want %+v", ino, *g, *w)
		}
		if !(w.alloc && w.ok && w.ip.IsDir()) {
			continue
		}
		gd, wd := &got.st.dirs[ino], &want.st.dirs[ino]
		if gd.empty != wd.empty || gd.sawDot != wd.sawDot || gd.sawDotdot != wd.sawDotdot ||
			!slices.Equal(gd.steps, wd.steps) || string(gd.names) != string(wd.names) ||
			!slices.Equal(gd.deps, wd.deps) {
			return fmt.Sprintf("directory %d: parse %+v, want %+v", ino, *gd, *wd)
		}
	}
	if len(got.rev) != len(want.rev) {
		return fmt.Sprintf("reverse index covers %d sectors, want %d", len(got.rev), len(want.rev))
	}
	for s := range want.rev {
		g, w := slices.Sorted(slices.Values(got.rev[s])), slices.Sorted(slices.Values(want.rev[s]))
		if !slices.Equal(g, w) {
			return fmt.Sprintf("reverse index of sector %d: %v, want %v", s, g, w)
		}
	}
	ga, wa := &got.art, &want.art
	switch {
	case !slices.Equal(ga.rep.Findings, wa.rep.Findings):
		return fmt.Sprintf("merge findings %v, want %v", ga.rep.Findings, wa.rep.Findings)
	case !slices.Equal(ga.rep.Refs, wa.rep.Refs):
		return fmt.Sprintf("merge refs %v, want %v", ga.rep.Refs, wa.rep.Refs)
	case ga.rep.AllocatedInodes != wa.rep.AllocatedInodes || ga.rep.ReferencedFrags != wa.rep.ReferencedFrags:
		return fmt.Sprintf("merge counters %d/%d, want %d/%d", ga.rep.AllocatedInodes, ga.rep.ReferencedFrags,
			wa.rep.AllocatedInodes, wa.rep.ReferencedFrags)
	case !slices.Equal(ga.ownBase, wa.ownBase):
		return "ownership tables differ"
	case !slices.Equal(ga.success, wa.success):
		return "claim-success counts differ"
	case !maps.EqualFunc(ga.refDirs, wa.refDirs, slices.Equal):
		return fmt.Sprintf("directory reverse index %v, want %v", ga.refDirs, wa.refDirs)
	case ga.aggStale != wa.aggStale || ga.aggLeaks != wa.aggLeaks:
		return fmt.Sprintf("fragment aggregates %d/%d, want %d/%d", ga.aggStale, ga.aggLeaks, wa.aggStale, wa.aggLeaks)
	case ga.conflictFree != wa.conflictFree || ga.rootOK != wa.rootOK:
		return fmt.Sprintf("conflictFree/rootOK %v/%v, want %v/%v", ga.conflictFree, ga.rootOK, wa.conflictFree, wa.rootOK)
	}
	for p := range wa.segs {
		if !slices.Equal(ga.segs[p], wa.segs[p]) {
			return fmt.Sprintf("pass %d finding segments %v, want %v", p+1, ga.segs[p], wa.segs[p])
		}
	}
	return ""
}

// WrapStamps sets every generation counter of dc to its maximum, so the
// next Check wraps each of them.
func WrapStamps(dc *DeltaChecker) {
	dc.own.epoch = 1<<32 - 1
	for _, s := range []*stampSet[ffs.Ino]{&dc.dirtyInos, &dc.dirtyDirs, &dc.inc.r1, &dc.inc.d2, &dc.inc.p3, &dc.inc.p4} {
		s.gen = math.MaxUint32
	}
	dc.inc.patched.gen = math.MaxUint32
}
