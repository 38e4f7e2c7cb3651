package crashmc

// The incremental checker's differential oracle: fsck reports for delta
// images replayed against a cached Baseline must equal, field for field,
// full checks of the materialized image — over randomized (seeded
// splitmix64) overlay deltas drawn from six schemes' recorded write
// timelines — Journaling's recovered first — and end-to-end over whole
// explorations.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/workload"
)

// recordRun is the internal-package twin of the external tests' record
// helper: a small create/remove workload with a Recorder attached.
func recordRun(t testing.TB, scheme fsim.Scheme, files int) *Recorder {
	t.Helper()
	sys, err := fsim.New(fsim.Options{
		Scheme:     scheme,
		DiskBytes:  6 << 20,
		NInodes:    1024,
		CacheBytes: 2 << 20,
	})
	if err != nil {
		t.Fatalf("fsim.New(%v): %v", scheme, err)
	}
	rec := Attach(sys.Driver, sys.Disk)
	var werr error
	sys.Run(func(p *fsim.Proc) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "mc")
		if err != nil {
			werr = err
			return
		}
		if err := workload.CreateFiles(p, sys.FS, dir, files, 1024); err != nil {
			werr = err
			return
		}
		sys.FS.Sync(p)
		if err := workload.RemoveFiles(p, sys.FS, dir, files); err != nil {
			werr = err
			return
		}
		sys.FS.Sync(p)
	})
	sys.Shutdown()
	if werr != nil {
		t.Fatalf("workload: %v", werr)
	}
	return rec
}

func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z ^= z >> 30
	z *= 0xBF58476D1CE4B9FD
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// compareReports asserts every exported Report field matches.
func compareReports(t *testing.T, trial int, inc, full *fsck.Report) {
	t.Helper()
	// The incremental report reuses its Findings backing array (len 0, not
	// nil), so compare by content rather than reflect.DeepEqual on slices.
	if len(inc.Findings) != len(full.Findings) {
		t.Fatalf("trial %d: findings differ\nincremental: %v\nfull:        %v", trial, inc.Findings, full.Findings)
	}
	for i := range inc.Findings {
		if inc.Findings[i] != full.Findings[i] {
			t.Fatalf("trial %d: finding %d differs\nincremental: %+v\nfull:        %+v", trial, i, inc.Findings[i], full.Findings[i])
		}
	}
	if !reflect.DeepEqual(inc.Refs, full.Refs) {
		t.Fatalf("trial %d: refs differ\nincremental: %v\nfull:        %v", trial, inc.Refs, full.Refs)
	}
	if inc.AllocatedInodes != full.AllocatedInodes || inc.ReferencedFrags != full.ReferencedFrags {
		t.Fatalf("trial %d: counters differ: alloc %d/%d, frags %d/%d", trial,
			inc.AllocatedInodes, full.AllocatedInodes, inc.ReferencedFrags, full.ReferencedFrags)
	}
}

// TestIncrementalEqualsFull replays randomized overlay deltas — random
// subsets of each recorded timeline's writes, with random torn-write
// prefixes, over both the pre-workload base and a mid-timeline committed
// image — and requires the DeltaChecker's spliced report to equal a full
// CheckImage of the materialized bytes, field for field. The subsets are
// not restricted to barrier-closed ones: incremental checking must agree
// on every delta, legal or not. The Journaling row recovers each delta
// first: the recovered delta a recoveryImage hands the DeltaChecker must
// check as the materialized delta does after fsck.ReplayJournal.
func TestIncrementalEqualsFull(t *testing.T) {
	for _, tc := range []struct {
		scheme  fsim.Scheme
		recover bool
	}{
		{fsim.Conventional, false},
		{fsim.SchedulerFlag, false},
		{fsim.SchedulerChains, false},
		{fsim.SoftUpdates, false},
		{fsim.NoOrder, false},
		{fsim.Journaling, true},
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			rec := recordRun(t, tc.scheme, 10)
			writes := recordedWrites(t, rec)

			// Two bases: the pre-workload image and a mid-timeline committed
			// image (first half of the writes applied in ID order).
			mid := append([]byte(nil), rec.base...)
			for _, w := range writes[:len(writes)/2] {
				w.apply(mid)
			}
			bases := [][]byte{rec.base, mid}

			rng := uint64(0x1994_1114) ^ uint64(tc.scheme)<<8
			ov := &overlay{}
			replayed := 0
			for bi, base := range bases {
				var sb ffs.Superblock
				if err := sb.Decode(base); err != nil {
					t.Fatal(err)
				}
				bl := fsck.NewBaseline(fsck.Bytes(base), 1)
				dc := fsck.NewDeltaChecker(bl)
				rc := newRecoveryImage(base)
				for trial := 0; trial < 60; trial++ {
					ov.load(randomJob(&rng, writes), base)
					want := fsck.Materialize(ov)
					var img fsck.DeltaImage = ov
					if tc.recover {
						replayed += fsck.ReplayJournal(want)
						if f := rc.load(ov, func(b []byte) { fsck.ReplayJournal(b) }); f != "" {
							t.Fatalf("trial %d: %s", trial, f)
						}
						checkRecovered(t, trial, rc, want, base)
						img = rc
					}
					compareReports(t, trial, dc.Check(img), fsck.CheckImage(fsck.Bytes(want)))
					if tc.recover {
						rc.restore()
						if !bytes.Equal(rc.img, base) {
							t.Fatalf("trial %d: the recovery image differs from the committed image after restore", trial)
						}
					}
				}
				if dc.Stats.Checks == 0 || dc.Stats.FullFallbacks != 0 {
					t.Fatalf("base %d: delta checks did not run incrementally: %+v", bi, dc.Stats)
				}
				// Committed bases are conflict-free, so the spliced merge must
				// carry the bulk of the checks, not just the re-derivation.
				if dc.Stats.SplicedMerges < dc.Stats.Checks/2 {
					t.Errorf("base %d: only %d of %d checks used the spliced merge",
						bi, dc.Stats.SplicedMerges, dc.Stats.Checks)
				}
				// The whole point: re-derivation must be a small fraction of
				// checks × inode count.
				if dc.Stats.InodesRederived >= dc.Stats.Checks*int64(sb.NInodes)/4 {
					t.Errorf("base %d: %d inodes re-derived over %d checks of %d inodes — not incremental",
						bi, dc.Stats.InodesRederived, dc.Stats.Checks, sb.NInodes)
				}
			}
			if tc.recover && replayed == 0 {
				t.Error("no delta replayed a journal transaction: recovery went unchecked")
			}
		})
	}
}

// recordedWrites returns rec's write requests in ID order.
func recordedWrites(t *testing.T, rec *Recorder) []*node {
	t.Helper()
	var writes []*node
	for _, n := range rec.nodes {
		if n.write {
			writes = append(writes, n)
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].id < writes[j].id })
	if len(writes) == 0 {
		t.Fatal("no writes recorded")
	}
	return writes
}

// randomJob draws a job hypothesizing a random subset of writes durable,
// half the time with a random write caught mid-transfer on top.
func randomJob(rng *uint64, writes []*node) *job {
	var subset []*node
	for _, w := range writes {
		if splitmix(rng)%4 == 0 {
			subset = append(subset, w)
		}
	}
	j := &job{subset: subset}
	if splitmix(rng)%2 == 0 {
		p := writes[splitmix(rng)%uint64(len(writes))]
		if p.count > 1 {
			j.partial = p
			j.psec = 1 + int(splitmix(rng)%uint64(p.count-1))
		}
	}
	return j
}

// checkRecovered asserts rc holds want, the materialized and recovered
// candidate, and names as dirty exactly the sectors where want differs
// from base.
func checkRecovered(t *testing.T, trial int, rc *recoveryImage, want, base []byte) {
	t.Helper()
	if !bytes.Equal(rc.img, want) {
		t.Fatalf("trial %d: the recovery image differs from the materialized, recovered candidate", trial)
	}
	var dirty []int64
	for s := int64(0); s*disk.SectorSize < int64(len(base)); s++ {
		lo, hi := s*disk.SectorSize, (s+1)*disk.SectorSize
		if !bytes.Equal(want[lo:hi], base[lo:hi]) {
			dirty = append(dirty, s)
		}
	}
	if !slices.Equal(rc.DirtySectors(), dirty) {
		t.Fatalf("trial %d: dirty sectors %v, want %v", trial, rc.DirtySectors(), dirty)
	}
}

// TestRecoveryImageAdversarialRecover drives the recovery image with a
// Recover that does what journal replay never does here: (i) it writes
// into a page that is all zero in the committed image and that no
// recorded write touches, (ii) it rewrites sector 0, which takes the
// DeltaChecker's full fallback, (iii) it writes bytes equal to the
// committed image's over a recorded write's sectors (reverting the
// candidate's write where it had one), and (iv) it zeroes a page the
// committed image gained by a move after the recovery image was made.
// Every recovered delta must check as the materialized candidate does
// after the same Recover, name exactly the sectors it changed, and leave
// the recovery image equal to the committed image after restore.
func TestRecoveryImageAdversarialRecover(t *testing.T) {
	rec := recordRun(t, fsim.Conventional, 10)
	writes := recordedWrites(t, rec)
	com := append([]byte(nil), rec.base...)
	rc := newRecoveryImage(com)

	touched := make(map[int64]bool)
	for _, w := range writes {
		for s := w.lbn; s < w.lbn+int64(w.count); s++ {
			touched[s*disk.SectorSize/pageSize] = true
		}
	}
	zeroPg := int64(-1)
	for p := int64(len(com)/pageSize) - 1; p > 0; p-- {
		if !touched[p] && isZero(com[p*pageSize:(p+1)*pageSize]) {
			zeroPg = p
			break
		}
	}
	if zeroPg < 0 {
		t.Fatal("no all-zero page untouched by the recorded writes")
	}
	// The committed image moves halfway, by the first half of the writes;
	// gained is a page that was all zero before and is not after.
	moveAt, moved := 40, writes[:len(writes)/2]
	gained := int64(-1)
	for _, w := range moved {
		if p := w.lbn * disk.SectorSize / pageSize; rc.zero[p] && gained < 0 {
			gained = p
		}
	}
	if gained < 0 {
		t.Fatal("the move gains no page that was all zero")
	}
	reverted := writes[len(writes)-1]

	var trial int
	adversary := func(img []byte) {
		switch trial % 5 {
		case 1:
			img[zeroPg*pageSize+int64(trial)] = byte(trial)
		case 2:
			img[disk.SectorSize-1] ^= 0xA5 // past the superblock's fields
		case 3:
			lo := reverted.lbn * disk.SectorSize
			copy(img[lo:lo+int64(reverted.count)*disk.SectorSize], com[lo:])
		case 4:
			clear(img[gained*pageSize : (gained+1)*pageSize])
		}
	}

	bl := fsck.NewBaseline(fsck.Bytes(com), 1)
	dc := fsck.NewDeltaChecker(bl)
	rng := uint64(0x5EC7_0000)
	ov := &overlay{}
	for trial = 0; trial < 80; trial++ {
		if trial == moveAt {
			var dirty []int64
			for _, w := range moved {
				w.apply(com)
				for s := w.lbn; s < w.lbn+int64(w.count); s++ {
					dirty = append(dirty, s)
				}
			}
			rc.sync(dirty)
			bl.Advance(dirty)
			dc.Rebind(bl)
		}
		ov.load(randomJob(&rng, writes), com)
		want := fsck.Materialize(ov)
		adversary(want)
		if f := rc.load(ov, adversary); f != "" {
			t.Fatalf("trial %d: %s", trial, f)
		}
		checkRecovered(t, trial, rc, want, com)
		compareReports(t, trial, dc.Check(rc), fsck.CheckImage(fsck.Bytes(want)))
		rc.restore()
		if !bytes.Equal(rc.img, com) {
			t.Fatalf("trial %d: the recovery image differs from the committed image after restore", trial)
		}
	}
	if dc.Stats.FullFallbacks == 0 {
		t.Error("no recovered delta dirtied sector 0: the full fallback went unchecked")
	}
}

// TestExploreFullCheckAgrees runs whole explorations on the incremental
// path and on a reference that checks every candidate in full — the
// candidate materialized, recovered and walked (checkFull, installed by
// exploreFull) — each at one pool worker and at four, and requires
// identical counters and identical retained violations. No Order brings
// the violations to compare; Conventional and Async Durability bring
// committed images that move, so the workers' Baselines advance (each row
// asserts they did); Journaling brings journal replay, recovered in each
// worker's recovery image and checked against the same Baseline.
func TestExploreFullCheckAgrees(t *testing.T) {
	for _, tc := range []struct {
		scheme   fsim.Scheme
		advances bool
	}{
		{fsim.NoOrder, false},
		{fsim.Conventional, true},
		{fsim.AsyncDurability, true},
		{fsim.Journaling, true},
	} {
		t.Run(tc.scheme.Slug(), func(t *testing.T) {
			rec := recordRun(t, tc.scheme, 8)
			base := Config{Workers: 1, Budget: 1000, PerInstant: 256}
			var replayed atomic.Int64
			if tc.scheme == fsim.Journaling {
				base.Recover = func(img []byte) { replayed.Add(int64(fsck.ReplayJournal(img))) }
			}
			inc := rec.Explore(base)
			fres := exploreFull(rec, base)

			pw := base
			pw.Workers = 4
			pres := rec.Explore(pw)
			fpres := exploreFull(rec, pw)

			for name, res := range map[string]*Result{"full": fres, "incremental, 4 workers": pres, "full, 4 workers": fpres} {
				if inc.Stats.Explored != res.Stats.Explored || inc.Stats.Checked != res.Stats.Checked ||
					inc.Stats.Deduped != res.Stats.Deduped || inc.Stats.Violating != res.Stats.Violating {
					t.Fatalf("%s: counters differ from incremental:\ninc:  %+v\n%s: %+v", name, inc.Stats, name, res.Stats)
				}
				if len(inc.Violations) != len(res.Violations) {
					t.Fatalf("%s: retained violations differ: %d vs %d", name, len(inc.Violations), len(res.Violations))
				}
				for i := range inc.Violations {
					if inc.Violations[i].Seq != res.Violations[i].Seq ||
						!reflect.DeepEqual(inc.Violations[i].Findings, res.Violations[i].Findings) {
						t.Fatalf("%s: violation %d differs:\ninc:  %+v\nother: %+v", name, i,
							inc.Violations[i], res.Violations[i])
					}
				}
			}
			if inc.Stats.BaselineBuilds != 1 || pres.Stats.BaselineBuilds > int64(pw.Workers) {
				t.Errorf("%d baselines derived in full at 1 worker, %d at %d; want one per worker, advanced after",
					inc.Stats.BaselineBuilds, pres.Stats.BaselineBuilds, pw.Workers)
			}
			if tc.advances && (inc.Stats.BaselineAdvances == 0 || pres.Stats.BaselineAdvances == 0) {
				t.Errorf("no baseline advanced (1 worker: %d, 4 workers: %d): the rolling path went unchecked",
					inc.Stats.BaselineAdvances, pres.Stats.BaselineAdvances)
			}
			if fres.Stats.BaselineBuilds != 0 || fres.Stats.BaselineAdvances != 0 {
				t.Errorf("full exploration built %d and advanced %d baselines; wanted none",
					fres.Stats.BaselineBuilds, fres.Stats.BaselineAdvances)
			}
			if base.Recover != nil && replayed.Load() == 0 {
				t.Error("no candidate replayed a journal transaction: recovery went unchecked")
			}
		})
	}
}

// TestRecoverPanicIsAFinding: a Recover that panics on one candidate does
// not kill the sweep. The state counts as violating, with the panic as its
// finding, and every other state checks as it does without the panic.
func TestRecoverPanicIsAFinding(t *testing.T) {
	rec := recordRun(t, fsim.Conventional, 8)
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, Budget: 600, PerInstant: 64, Recover: func([]byte) {}}
		clean := rec.Explore(cfg)
		if !clean.Clean() {
			t.Fatalf("%d workers: %d violating states without the panic", workers, clean.Stats.Violating)
		}
		var calls atomic.Int64
		cfg.Recover = func([]byte) {
			if calls.Add(1) == 5 {
				panic("boom")
			}
		}
		res := rec.Explore(cfg)
		if res.Stats.Checked != clean.Stats.Checked || res.Stats.Violating != 1 {
			t.Fatalf("%d workers: checked %d, violating %d; want %d checked, 1 violating",
				workers, res.Stats.Checked, res.Stats.Violating, clean.Stats.Checked)
		}
		want := []string{"recovery panicked on image: boom"}
		if len(res.Violations) != 1 || !reflect.DeepEqual(res.Violations[0].Findings, want) {
			t.Fatalf("%d workers: retained %+v, want one state with findings %q", workers, res.Violations, want)
		}
		if workers == 1 && res.Violations[0].Seq != 5 {
			t.Errorf("the panic was reported at state %d, want 5 (the fifth recovered)", res.Violations[0].Seq)
		}
	}
}

// TestFinalizeThroughput pins the CheckedPerSec guard: degenerate elapsed
// times must produce 0, never +Inf/NaN — which encoding/json refuses to
// marshal, turning `mdcheck -json` into an encode error.
func TestFinalizeThroughput(t *testing.T) {
	cases := []struct {
		checked int64
		elapsed float64
		want    float64
	}{
		{100, 0, 0},  // tiny sweep, clock rounded to zero: the old +Inf
		{0, 0, 0},    // 0/0: the old NaN
		{100, -1, 0}, // clock went backwards
		{100, math.NaN(), 0},
		{50, 2, 25}, // the normal case still divides
	}
	for _, c := range cases {
		s := Stats{Checked: c.checked, ElapsedSec: c.elapsed}
		s.FinalizeThroughput()
		if s.CheckedPerSec != c.want {
			t.Errorf("FinalizeThroughput(checked=%d, elapsed=%v) = %v, want %v",
				c.checked, c.elapsed, s.CheckedPerSec, c.want)
		}
		if c.elapsed == c.elapsed { // skip NaN ElapsedSec for the marshal check
			if _, err := json.Marshal(&s); err != nil {
				t.Errorf("stats with elapsed=%v not marshalable: %v", c.elapsed, err)
			}
		}
	}
}
