package crashmc_test

import (
	"reflect"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/workload"
)

// record runs a small 1 KB create/remove workload under the given scheme on
// a compact file system with a Recorder attached, drains the simulation,
// and returns the recording ready to explore.
func record(t *testing.T, scheme fsim.Scheme, files int, seedBug bool) *crashmc.Recorder {
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
	if seedBug {
		if sys.Soft == nil {
			t.Fatalf("seedBug needs soft updates, got %v", scheme)
		}
		sys.Soft.DropEntryDeps = true
	}
	rec := crashmc.Attach(sys.Driver, sys.Disk)
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
	if rec.Writes() == 0 {
		t.Fatal("recorder saw no writes")
	}
	return rec
}

var quick = crashmc.Config{Workers: 2, Budget: 1500, PerInstant: 256}

func TestOrderedSchemesClean(t *testing.T) {
	// 70 files pushes the workload's directory through both in-place chunk
	// growth (>31 entries) and a fragment-extension move (>1 KB), the two
	// paths where this checker found (since-fixed) ordering holes that a
	// sampled crash sweep missed. The budget must be large enough for the
	// sweep to reach the instants where those writes are pending.
	cfg := quick
	cfg.Budget = 4000
	for _, scheme := range []fsim.Scheme{fsim.Conventional, fsim.SchedulerFlag, fsim.SchedulerChains, fsim.SoftUpdates} {
		t.Run(scheme.String(), func(t *testing.T) {
			res := record(t, scheme, 70, false).Explore(cfg)
			if !res.Clean() {
				t.Fatalf("%v: %d violating crash states, first: %+v",
					scheme, res.Stats.Violating, res.Violations[0])
			}
			if res.Stats.Checked < 100 {
				t.Errorf("only %d distinct crash images checked; want a real sweep", res.Stats.Checked)
			}
			if res.Stats.Explored > int64(cfg.Budget) {
				t.Errorf("explored %d states, budget %d", res.Stats.Explored, cfg.Budget)
			}
			if res.Stats.Instants < 2 {
				t.Errorf("explored %d crash instants; want the whole timeline prefix", res.Stats.Instants)
			}
		})
	}
}

func TestNoOrderViolates(t *testing.T) {
	res := record(t, fsim.NoOrder, 10, false).Explore(quick)
	if res.Clean() {
		t.Fatalf("noorder survived %d distinct crash images; the oracle should object", res.Stats.Checked)
	}
	if len(res.Violations) == 0 {
		t.Fatal("violating counter nonzero but no violations retained")
	}
	for i, v := range res.Violations {
		if len(v.Findings) == 0 {
			t.Errorf("violation %d has no findings", i)
		}
		if i > 0 && res.Violations[i-1].Seq >= v.Seq {
			t.Errorf("violations not sorted by seq: %d then %d", res.Violations[i-1].Seq, v.Seq)
		}
	}
}

// TestSeededViolationShrinks plants a real ordering bug — soft updates with
// the directory-entry→inode dependency dropped — and requires the checker
// to catch it and shrink it to a repro naming the offending writes.
func TestSeededViolationShrinks(t *testing.T) {
	cfg := quick
	cfg.Shrink = true
	res := record(t, fsim.SoftUpdates, 10, true).Explore(cfg)
	if res.Clean() {
		t.Fatal("dropped dependency not caught")
	}
	if res.Repro == nil {
		t.Fatal("no repro produced")
	}
	if len(res.Repro.Findings) == 0 {
		t.Fatal("repro has no findings")
	}
	named := len(res.Repro.Writes)
	if res.Repro.Partial != nil {
		named++
	}
	if named == 0 {
		t.Fatal("repro names no writes")
	}
	// The planted bug exposes directory entries naming uninitialized
	// inodes; the shrunk finding should say so.
	joined := strings.Join(res.Repro.Findings, "\n")
	if !strings.Contains(joined, "DanglingEntry") && !strings.Contains(joined, "LinkUndercount") {
		t.Errorf("repro findings don't mention the planted dependency bug:\n%s", joined)
	}
	// Minimality in practice: the planted bug needs only a handful of
	// writes, not the whole timeline.
	if named > 6 {
		t.Errorf("repro names %d writes; shrinking should do better", named)
	}
	if res.Repro.Trials > crashmc.ShrinkTrials {
		t.Errorf("shrink used %d trials, cap %d", res.Repro.Trials, crashmc.ShrinkTrials)
	}
}

// TestWorkerCountInvariance pins the determinism contract: the exploration
// is enumerated single-threaded and every worker rolls its own committed
// image along the same done order, advancing its own Baseline with it, so
// every counter and the retained violation set must be identical
// regardless of checker parallelism. No Order brings retained violations;
// Conventional and Async Durability bring images that move, so each row
// asserts the Baselines advanced.
func TestWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		scheme   fsim.Scheme
		advances bool
	}{
		{fsim.NoOrder, false},
		{fsim.Conventional, true},
		{fsim.AsyncDurability, true},
	} {
		t.Run(tc.scheme.Slug(), func(t *testing.T) {
			rec := record(t, tc.scheme, 8, false)
			one := rec.Explore(crashmc.Config{Workers: 1, Budget: 1000, PerInstant: 256})
			if tc.scheme == fsim.NoOrder && one.Clean() {
				t.Fatal("noorder exploration is clean: no retained violations to compare")
			}
			for _, workers := range []int{2, 4} {
				many := rec.Explore(crashmc.Config{Workers: workers, Budget: 1000, PerInstant: 256})
				if one.Stats.Explored != many.Stats.Explored ||
					one.Stats.Checked != many.Stats.Checked ||
					one.Stats.Deduped != many.Stats.Deduped ||
					one.Stats.Violating != many.Stats.Violating {
					t.Fatalf("counters differ across worker counts:\n1: %+v\n%d: %+v", one.Stats, workers, many.Stats)
				}
				if !reflect.DeepEqual(one.Violations, many.Violations) {
					t.Fatalf("retained violations differ between 1 and %d workers:\n1: %+v\n%d: %+v",
						workers, one.Violations, workers, many.Violations)
				}
				if tc.advances && many.Stats.BaselineAdvances == 0 {
					t.Errorf("%d workers advanced no baseline", workers)
				}
			}
			if tc.advances && one.Stats.BaselineAdvances == 0 {
				t.Error("one worker advanced no baseline: the rolling path went unchecked")
			}
		})
	}
}
