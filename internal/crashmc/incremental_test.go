package crashmc

// The incremental checker's differential oracle: fsck reports for delta
// images replayed against a cached Baseline must equal, field for field,
// full checks of the materialized image — over randomized (seeded
// splitmix64) overlay deltas drawn from all five schemes' recorded write
// timelines, and end-to-end over whole explorations.

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"metaupdate/fsim"
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
// on every delta, legal or not.
func TestIncrementalEqualsFull(t *testing.T) {
	schemes := []fsim.Scheme{fsim.Conventional, fsim.SchedulerFlag, fsim.SchedulerChains, fsim.SoftUpdates, fsim.NoOrder}
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			rec := recordRun(t, scheme, 10)
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

			// Two bases: the pre-workload image and a mid-timeline committed
			// image (first half of the writes applied in ID order).
			mid := append([]byte(nil), rec.base...)
			for _, w := range writes[:len(writes)/2] {
				w.apply(mid)
			}
			bases := [][]byte{rec.base, mid}

			rng := uint64(0x1994_1114) ^ uint64(scheme)<<8
			ov := &overlay{}
			for bi, base := range bases {
				var sb ffs.Superblock
				if err := sb.Decode(base); err != nil {
					t.Fatal(err)
				}
				bl := fsck.NewBaseline(fsck.Bytes(base), 1)
				dc := fsck.NewDeltaChecker(bl)
				for trial := 0; trial < 60; trial++ {
					var subset []*node
					for _, w := range writes {
						if splitmix(&rng)%4 == 0 {
							subset = append(subset, w)
						}
					}
					j := job{subset: &subset}
					if splitmix(&rng)%2 == 0 {
						p := writes[splitmix(&rng)%uint64(len(writes))]
						if p.count > 1 {
							j.partial = p
							j.psec = 1 + int(splitmix(&rng)%uint64(p.count-1))
						}
					}
					ov.load(&j, base)
					inc := dc.Check(ov)
					full := fsck.CheckImage(fsck.Bytes(fsck.Materialize(ov)))
					compareReports(t, trial, inc, full)
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
		})
	}
}

// TestExploreFullCheckAgrees runs whole explorations on the incremental
// (default) path and on the per-candidate full path — selected the way
// production selects it, by a Recover hook (here one that recovers nothing)
// — each at one pool worker and at four, and requires identical counters
// and identical retained violations. No Order brings the violations to
// compare; Conventional and Async Durability bring committed images that
// move, so the workers' Baselines advance (each row asserts they did).
func TestExploreFullCheckAgrees(t *testing.T) {
	for _, tc := range []struct {
		scheme   fsim.Scheme
		advances bool
	}{
		{fsim.NoOrder, false},
		{fsim.Conventional, true},
		{fsim.AsyncDurability, true},
	} {
		t.Run(tc.scheme.Slug(), func(t *testing.T) {
			rec := recordRun(t, tc.scheme, 8)
			base := Config{Workers: 1, Budget: 1000, PerInstant: 256}
			inc := rec.Explore(base)

			full := base
			full.Recover = func([]byte) {}
			fres := rec.Explore(full)

			pw := base
			pw.Workers = 4
			pres := rec.Explore(pw)

			fpw := full
			fpw.Workers = 4
			fpres := rec.Explore(fpw)

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
			if !inc.Stats.Incremental || fres.Stats.Incremental {
				t.Fatalf("Incremental flags wrong: inc=%v full=%v", inc.Stats.Incremental, fres.Stats.Incremental)
			}
			if inc.Stats.BaselineBuilds != 1 {
				t.Errorf("one worker derived %d baselines in full; want 1, advanced after", inc.Stats.BaselineBuilds)
			}
			if tc.advances && (inc.Stats.BaselineAdvances == 0 || pres.Stats.BaselineAdvances == 0) {
				t.Errorf("no baseline advanced (1 worker: %d, 4 workers: %d): the rolling path went unchecked",
					inc.Stats.BaselineAdvances, pres.Stats.BaselineAdvances)
			}
			if fres.Stats.BaselineBuilds != 0 || fres.Stats.BaselineAdvances != 0 {
				t.Errorf("full exploration built %d and advanced %d baselines; wanted none",
					fres.Stats.BaselineBuilds, fres.Stats.BaselineAdvances)
			}
		})
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
