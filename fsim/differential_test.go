package fsim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
)

// Differential crash-recovery test: run a scripted, seeded workload; crash
// it at several virtual instants; recover each image the way the paper
// prescribes (NVRAM replay where applicable, then fsck repair); and compare
// the recovered logical directory tree against a model of the no-crash run.
//
// The recovered tree must be a *consistent subset* of the no-crash state:
// every recovered path must have existed at some point of the operation
// sequence with the same type and no more than its maximum written size
// (recovery may truncate, never fabricate). For the synchronous-metadata
// scheme the suite additionally asserts *prefix* consistency: operations
// return only after their metadata is durable, so the visible files must
// correspond to a prefix of the operation order.

const (
	diffFiles   = 120
	diffDirName = "d"
)

func diffFileName(i int) string { return fmt.Sprintf("f%03d", i) }
func diffFileSize(i int) int    { return (i%4 + 1) * 2048 }

// diffWorkload is the scripted run: create diffFiles stamped files in one
// directory, then remove the even-numbered ones, in strict sequence.
func diffWorkload(sys *fsim.System) {
	sys.Eng.Spawn("diff", func(p *fsim.Proc) {
		fs := sys.FS
		dir, err := fs.Mkdir(p, fsim.RootIno, diffDirName)
		if err != nil {
			return
		}
		for i := 0; i < diffFiles; i++ {
			ino, err := fs.Create(p, dir, diffFileName(i))
			if err != nil {
				return
			}
			fs.WriteAt(p, ino, 0, fsck.MakeStampedData(ino, diffFileSize(i)))
		}
		for i := 0; i < diffFiles; i += 2 {
			fs.Unlink(p, dir, diffFileName(i))
		}
	})
}

// recoveredTree crashes a fresh system running diffWorkload at the given
// instant, applies the scheme's recovery (NVRAM replay, then fsck repair),
// asserts the repaired image is integrity-clean, and returns its tree.
func recoveredTree(t *testing.T, opt fsim.Options, at fsim.Duration) (map[string]fsck.TreeEntry, fsim.Stats) {
	t.Helper()
	sys, err := fsim.New(opt)
	if err != nil {
		t.Fatalf("fsim.New(%v): %v", opt.Scheme, err)
	}
	diffWorkload(sys)
	img := sys.Crash(fsim.Time(at))
	st := sys.CollectStats()
	sys.Recover(img)
	fsck.Repair(img)
	if viol := fsck.Check(img).Violations(); len(viol) != 0 {
		t.Fatalf("image not clean after repair: %v", viol[0])
	}
	tree, err := fsck.Tree(fsck.Bytes(img))
	if err != nil {
		t.Fatalf("tree walk after repair: %v", err)
	}
	return tree, st
}

// checkSubsetOfRun asserts tree against the operation model: nothing in the
// recovered namespace may be something the run never produced.
func checkSubsetOfRun(t *testing.T, at fsim.Duration, tree map[string]fsck.TreeEntry) {
	t.Helper()
	for path, e := range tree {
		switch {
		case path == "/":
		case path == "/"+diffDirName:
			if !e.Dir {
				t.Errorf("crash at %v: %s recovered as a file", at, path)
			}
		case strings.HasPrefix(path, "/"+diffDirName+"/"):
			var i int
			if _, err := fmt.Sscanf(path, "/"+diffDirName+"/f%03d", &i); err != nil || i < 0 || i >= diffFiles {
				t.Errorf("crash at %v: recovered path %s was never created", at, path)
				continue
			}
			if e.Dir {
				t.Errorf("crash at %v: %s recovered as a directory", at, path)
			}
			if e.Size > uint64(diffFileSize(i)) {
				t.Errorf("crash at %v: %s has size %d, never grew past %d",
					at, path, e.Size, diffFileSize(i))
			}
		default:
			t.Errorf("crash at %v: recovered path %s was never created", at, path)
		}
	}
}

// checkPrefixOfRun asserts the synchronous-metadata property: the visible
// files must be reachable by running some prefix of the operation sequence.
// During the create phase that means a contiguous run f000..fk; once every
// file exists, the missing even files must be a prefix of the removal
// order.
func checkPrefixOfRun(t *testing.T, at fsim.Duration, tree map[string]fsck.TreeEntry) {
	t.Helper()
	present := make([]bool, diffFiles)
	count := 0
	for i := range present {
		if _, ok := tree["/"+diffDirName+"/"+diffFileName(i)]; ok {
			present[i] = true
			count++
		}
	}
	maxSeen := -1
	for i := diffFiles - 1; i >= 0; i-- {
		if present[i] {
			maxSeen = i
			break
		}
	}
	if maxSeen == -1 {
		return // crashed before any create was durable: the empty prefix
	}
	if maxSeen < diffFiles-1 {
		// Create phase: everything up to the newest visible file must be
		// visible too (each create returned before the next started).
		for i := 0; i < maxSeen; i++ {
			if !present[i] {
				t.Errorf("crash at %v: %s visible but earlier %s missing — not a prefix of the run",
					at, diffFileName(maxSeen), diffFileName(i))
				return
			}
		}
		return
	}
	// Remove phase: odd files never removed, so all must be visible; the
	// missing evens must be exactly the first k removals.
	firstPresent := diffFiles
	for i := 0; i < diffFiles; i += 2 {
		if present[i] {
			firstPresent = i
			break
		}
	}
	for i := 0; i < diffFiles; i++ {
		if i%2 == 1 && !present[i] {
			t.Errorf("crash at %v: %s missing but it was never removed", at, diffFileName(i))
		}
		if i%2 == 0 && i > firstPresent && !present[i] {
			t.Errorf("crash at %v: removals not a prefix — %s missing while %s is visible",
				at, diffFileName(i), diffFileName(firstPresent))
		}
	}
}

var diffCrashPoints = []fsim.Duration{
	500 * fsim.Millisecond,
	5 * fsim.Second,
	35 * fsim.Second,
	55 * fsim.Second,
	95 * fsim.Second,
}

func TestDifferentialRecovery(t *testing.T) {
	for _, scheme := range []fsim.Scheme{
		fsim.Conventional, fsim.SchedulerFlag, fsim.SchedulerChains,
		fsim.SoftUpdates, fsim.NVRAM, fsim.Journaling, fsim.AsyncDurability,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			for _, at := range diffCrashPoints {
				tree, _ := recoveredTree(t, conformanceOpts(scheme), at)
				checkSubsetOfRun(t, at, tree)
				if scheme == fsim.Conventional {
					checkPrefixOfRun(t, at, tree)
				}
			}
		})
	}
}

// TestJournalReplayIdempotent pins the recovery algorithm's re-entrancy: the
// replay scan is read-only over the journal region and applies committed
// images by sequence, so running it a second time on the recovered image must
// be a byte-for-byte no-op (crash-during-recovery is safe), and both passes
// must report the same transaction count.
func TestJournalReplayIdempotent(t *testing.T) {
	for _, at := range diffCrashPoints {
		sys, err := fsim.New(conformanceOpts(fsim.Journaling))
		if err != nil {
			t.Fatal(err)
		}
		diffWorkload(sys)
		img := sys.Crash(fsim.Time(at))
		n1 := fsck.ReplayJournal(img)
		once := append([]byte(nil), img...)
		n2 := fsck.ReplayJournal(img)
		if n1 != n2 {
			t.Errorf("crash at %v: replay counts differ: %d then %d", at, n1, n2)
		}
		if !bytes.Equal(once, img) {
			t.Errorf("crash at %v: second replay changed the image (%d txns)", at, n1)
		}
	}
}

// TestDifferentialRecoveryUnderFaults reruns the sweep with the fault plan
// active: retried and remapped writes must not let recovery resurrect state
// the run never produced. Assertions are gated on the driver reporting no
// exhausted-retry errors (a reported write error voids the durability
// premise the differential model relies on).
func TestDifferentialRecoveryUnderFaults(t *testing.T) {
	for _, scheme := range []fsim.Scheme{
		fsim.Conventional, fsim.SoftUpdates, fsim.NVRAM,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			for _, at := range diffCrashPoints {
				opt := conformanceOpts(scheme)
				opt.Faults = fsim.FaultSpec{
					Seed:            7,
					TransientPer10k: 150,
					TornPer10k:      150,
					LatencyPer10k:   50,
					BadSectors:      2,
				}
				opt.MaxRetries = 8
				tree, st := recoveredTree(t, opt, at)
				if st.Faults.Errors > 0 {
					t.Logf("crash at %v: %d write errors, differential not asserted", at, st.Faults.Errors)
					continue
				}
				checkSubsetOfRun(t, at, tree)
				if scheme == fsim.Conventional {
					checkPrefixOfRun(t, at, tree)
				}
			}
		})
	}
}
