package fsim_test

import (
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/ordering"
)

// Cross-scheme conformance suite for the paper's three metadata update
// ordering rules (section 2):
//
//  1. Never point to a structure before it has been initialized.
//  2. Never re-use a resource before nullifying all previous pointers to it.
//  3. Never reset the last pointer to a live resource before a new pointer
//     has been set.
//
// Each rule has a named witness predicate mapping fsck findings back to the
// rule whose violation produced them; a scheme conforms iff every crash
// image in a sweep yields zero witnesses for every rule. No Order is the
// control: the suite asserts it DOES violate, so a regression that silently
// weakens the fsck oracle (making everything "pass") is caught too.

// rule1NeverPointToUninitialized witnesses rule 1: a directory entry naming
// an unallocated inode, a pointer outside the data region, a type flag that
// disagrees with the inode, directory contents that were never formatted,
// or a file block still carrying another file's (deleted) contents — all
// are a persistent pointer that landed before its target was initialized.
func rule1NeverPointToUninitialized(f fsck.Finding) bool {
	switch f.Kind {
	case fsck.DanglingEntry, fsck.BadPointer, fsck.TypeMismatch,
		fsck.BadDirFormat, fsck.UninitializedData, fsck.BadSuperblock:
		return true
	}
	return false
}

// rule2NeverReuseBeforeNullify witnesses rule 2: a fragment owned by two
// inodes at once means the free+reallocate landed before the old owner's
// pointer was nullified on disk.
func rule2NeverReuseBeforeNullify(f fsck.Finding) bool {
	return f.Kind == fsck.CrossLink
}

// rule3NeverResetLastPointerEarly witnesses rule 3: an on-disk link count
// lower than the number of on-disk references risks premature free — the
// remove half of a rename (or the count decrement) landed before the new
// pointer was durable.
func rule3NeverResetLastPointerEarly(f fsck.Finding) bool {
	return f.Kind == fsck.LinkUndercount
}

var orderingRules = []struct {
	name    string
	witness func(fsck.Finding) bool
}{
	{"rule1: never point to an uninitialized structure", rule1NeverPointToUninitialized},
	{"rule2: never reuse a resource before nullifying pointers to it", rule2NeverReuseBeforeNullify},
	{"rule3: never reset the last pointer before the new one is set", rule3NeverResetLastPointerEarly},
}

// classifyByRule buckets violations under the ordering rule they witness.
// Every violation the fsck oracle can emit maps to exactly one rule, so the
// classification doubles as a completeness check on the suite itself.
func classifyByRule(t *testing.T, findings []fsck.Finding) map[string][]fsck.Finding {
	t.Helper()
	byRule := make(map[string][]fsck.Finding)
	for _, f := range findings {
		matched := false
		for _, r := range orderingRules {
			if r.witness(f) {
				byRule[r.name] = append(byRule[r.name], f)
				matched = true
			}
		}
		if !matched {
			t.Errorf("violation %v matches no ordering rule; extend the suite", f)
		}
	}
	return byRule
}

// conformanceOpts is the compact configuration every sweep in this file
// uses: small media so fsck per crash image stays cheap.
func conformanceOpts(scheme fsim.Scheme) fsim.Options {
	return fsim.Options{
		Scheme:     scheme,
		DiskBytes:  8 << 20,
		NInodes:    1024,
		CacheBytes: 2 << 20,
	}
}

// churnForever launches (without waiting for) a metadata-heavy loop that
// exercises all three rules: creates with stamped data (rule 1), removes
// that free resources for reuse (rule 2), and renames over live names
// (rule 3).
func churnForever(sys *fsim.System) {
	sys.Eng.Spawn("churn", func(p *fsim.Proc) {
		fs := sys.FS
		dir, err := fs.Mkdir(p, fsim.RootIno, "work")
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			name := fmt.Sprintf("f%d", i%40)
			if ino, err := fs.Create(p, dir, name); err == nil {
				fs.WriteAt(p, ino, 0, fsck.MakeStampedData(ino, 4096))
			}
			if i%3 == 2 {
				fs.Unlink(p, dir, fmt.Sprintf("f%d", (i-2)%40))
			}
			if i%7 == 6 {
				fs.Rename(p, dir, name, dir, fmt.Sprintf("r%d", i%40))
			}
		}
	})
}

// crashImage runs the churn under opt, pulls the plug at the given virtual
// time, and returns the media image after the scheme's recovery assistance:
// NVRAM replays its surviving log records (the paper's premise is that NVRAM
// contents survive the crash); every other scheme recovers with fsck alone.
func crashImage(t *testing.T, opt fsim.Options, at fsim.Duration) ([]byte, *fsim.System) {
	t.Helper()
	sys, err := fsim.New(opt)
	if err != nil {
		t.Fatalf("fsim.New(%v): %v", opt.Scheme, err)
	}
	churnForever(sys)
	img := sys.Crash(fsim.Time(at))
	if len(img) == 0 {
		t.Fatal("crash produced no image")
	}
	sys.Recover(img)
	return img, sys
}

// The syncer daemon sweeps 1/30th of the cache per second, so the first
// delayed writes reach the disk after roughly half a minute; crash points
// before that see an empty (trivially consistent) media under the
// fully-delayed schemes. Crash after, while flushing and churn overlap.
var conformanceCrashPoints = []fsim.Duration{
	35 * fsim.Second,
	52 * fsim.Second,
	80 * fsim.Second,
}

// TestOrderingRuleConformance is the cross-scheme matrix: the five schemes
// the paper endorses must satisfy all three rules at every crash point;
// No Order must not.
func TestOrderingRuleConformance(t *testing.T) {
	cases := []struct {
		scheme    fsim.Scheme
		wantClean bool
	}{
		{fsim.Conventional, true},
		{fsim.SchedulerFlag, true},
		{fsim.SchedulerChains, true},
		{fsim.SoftUpdates, true},
		{fsim.NVRAM, true},
		{fsim.Journaling, true},
		{fsim.AsyncDurability, true},
		{fsim.NoOrder, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme.String(), func(t *testing.T) {
			t.Parallel()
			violated := make(map[string]int)
			for _, at := range conformanceCrashPoints {
				img, _ := crashImage(t, conformanceOpts(tc.scheme), at)
				byRule := classifyByRule(t, fsck.Check(img).Violations())
				for rule, fs := range byRule {
					violated[rule] += len(fs)
					if tc.wantClean {
						t.Errorf("crash at %v: %s violated %d times, e.g. %v",
							at, rule, len(fs), fs[0])
					}
				}
			}
			if !tc.wantClean && len(violated) == 0 {
				t.Errorf("%v produced no ordering-rule violations across %d crash points; "+
					"the control scheme should violate (is the oracle still working?)",
					tc.scheme, len(conformanceCrashPoints))
			}
		})
	}
}

// rule4DurabilityFollowsNotification is the fourth named predicate, specific
// to AsyncDurability's visibility/durability contract: an operation whose
// durability notification was delivered before the crash MUST be present in
// the recovered image, while an operation that was visible (its Create
// returned) but not yet notified MAY be lost. The predicate takes the
// recovered tree and the notification log and returns the contract
// violations — notified operations that did not survive.
func rule4DurabilityFollowsNotification(tree map[string]fsck.TreeEntry, notified map[fsim.Ino]string) []string {
	var violations []string
	for ino, name := range notified {
		e, ok := tree["/"+name]
		if !ok {
			violations = append(violations, fmt.Sprintf("notified create of %q (ino %d) missing after crash", name, ino))
			continue
		}
		if e.Ino != ino {
			violations = append(violations, fmt.Sprintf("notified create of %q resolves to ino %d, want %d", name, e.Ino, ino))
		}
	}
	return violations
}

// TestAsyncVisibilityVsDurabilitySplit pins AsyncDurability's contract with
// rule4: creates become visible immediately, notifications arrive on group
// commit, and a crash between the two loses only unnotified operations. The
// workload paces creates against a stretched 2 s group-commit interval so
// the crash instant provably lands inside the window: some operations are
// notified (and must survive), others are visible-but-unnotified (and the
// test asserts the loss window is real, not vacuous).
func TestAsyncVisibilityVsDurabilitySplit(t *testing.T) {
	opt := conformanceOpts(fsim.AsyncDurability)
	opt.AsyncInterval = 2 * fsim.Second
	opt.AsyncWindow = 512
	sys, err := fsim.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	var notices []ordering.Notice
	sys.Async.OnNotice = func(n ordering.Notice) { notices = append(notices, n) }
	type op struct {
		name string
		ino  fsim.Ino
	}
	var visible []op
	sys.Eng.Spawn("creator", func(p *fsim.Proc) {
		// Short names keep every entry inside the root's formatted fragment,
		// so a notified entry's reachability never hinges on a separate
		// (unregistered) pointer write.
		for i := 0; i < 40; i++ {
			ino, err := sys.FS.Create(p, fsim.RootIno, fmt.Sprintf("a%02d", i))
			if err != nil {
				return
			}
			visible = append(visible, op{fmt.Sprintf("a%02d", i), ino})
			p.Sleep(100 * fsim.Millisecond)
		}
	})
	// Crash mid-window: after the ~2 s group commit notified the early ops,
	// before the ~4 s one covers the rest.
	img := sys.Crash(fsim.Time(3050 * fsim.Millisecond))

	notified := make(map[fsim.Ino]string)
	for _, n := range notices {
		if n.Kind == ordering.NoticeAdd {
			for _, o := range visible {
				if o.ino == n.Ino {
					notified[n.Ino] = o.name
				}
			}
		}
	}
	if len(notified) == 0 {
		t.Fatal("no operation was notified before the crash; crash point misses the group commit")
	}
	if len(notified) >= len(visible) {
		t.Fatalf("all %d visible ops were notified; crash point does not exercise the in-flight window", len(visible))
	}

	// The raw crash image still satisfies rules 1-3 (the scheme's write
	// pattern is scheduler chains).
	for rule, fs := range classifyByRule(t, fsck.Check(img).Violations()) {
		t.Errorf("async crash image: %s violated, e.g. %v", rule, fs[0])
	}

	tree, err := fsck.Tree(fsck.Bytes(img))
	if err != nil {
		t.Fatalf("tree walk: %v", err)
	}
	for _, v := range rule4DurabilityFollowsNotification(tree, notified) {
		t.Errorf("rule4: %s", v)
	}
	lost := 0
	for _, o := range visible {
		if _, ok := notified[o.ino]; ok {
			continue
		}
		if _, ok := tree["/"+o.name]; !ok {
			lost++
		}
	}
	t.Logf("visible=%d notified=%d lost-unnotified=%d", len(visible), len(notified), lost)
	if lost == 0 {
		t.Error("every visible-but-unnotified op survived the crash; the visibility/durability split is vacuous at this crash point")
	}
}

// TestOrderingRulesHoldUnderFaults is the tentpole integration: with the
// fault plan injecting transient aborts, torn writes, and latency spikes,
// the safe schemes must STILL satisfy every rule at every crash point — the
// driver never signals a faulted write complete before its sectors are on
// the media, so retries cannot reorder metadata. The assertion is gated on
// the run having no exhausted-retry errors: once the driver gives up on a
// write, durability is out of its hands and the paper's premise is void.
func TestOrderingRulesHoldUnderFaults(t *testing.T) {
	for _, scheme := range []fsim.Scheme{
		fsim.Conventional, fsim.SchedulerFlag, fsim.SchedulerChains,
		fsim.SoftUpdates, fsim.NVRAM, fsim.Journaling, fsim.AsyncDurability,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			for _, at := range conformanceCrashPoints {
				opt := conformanceOpts(scheme)
				opt.Faults = fsim.FaultSpec{
					Seed:            41,
					TransientPer10k: 120,
					TornPer10k:      120,
					LatencyPer10k:   60,
					BadSectors:      3,
				}
				opt.MaxRetries = 8
				img, sys := crashImage(t, opt, at)
				st := sys.CollectStats()
				if st.Faults.Errors > 0 {
					// The driver exhausted retries; conformance is not
					// promised past a reported write error.
					t.Logf("crash at %v: %d write errors, conformance not asserted", at, st.Faults.Errors)
					continue
				}
				for rule, fs := range classifyByRule(t, fsck.Check(img).Violations()) {
					t.Errorf("crash at %v under faults (%d transient, %d torn, %d retries): %s violated, e.g. %v",
						at, st.Faults.Transient, st.Faults.Torn, st.Faults.Retries, rule, fs[0])
				}
			}
		})
	}
}
