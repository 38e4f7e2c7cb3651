package crashmc

// A crash state costs what it changes. The explorer holds no image and names
// an instant's committed image by a prefix of its done order; each checker
// worker rolls one private image forward along that order; the DFS carries
// the signature of the subset it is building instead of recomputing it. These
// tests pin each of those against the construction it replaced.

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/workload"
)

// recordFaulty records a Flag timeline on a disk that tears and fails
// writes: torn prefixes enter the done order as synthetic entries.
func recordFaulty(t testing.TB, files int) *Recorder {
	t.Helper()
	sys, err := fsim.New(fsim.Options{
		Scheme: fsim.SchedulerFlag, DiskBytes: 6 << 20, NInodes: 1024, CacheBytes: 2 << 20,
		Faults:     fsim.FaultSpec{Seed: 3, TransientPer10k: 1200, TornPer10k: 300, BadSectors: 2},
		MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := Attach(sys.Driver, sys.Disk)
	sys.Run(func(p *fsim.Proc) {
		// Operations may fail on this disk; the timeline is what is wanted.
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "mc")
		if err != nil {
			return
		}
		workload.CreateFiles(p, sys.FS, dir, files, 1024)
		sys.FS.Sync(p)
		workload.RemoveFiles(p, sys.FS, dir, files)
		sys.FS.Sync(p)
	})
	sys.Shutdown()
	return rec
}

// committedOracle is the committed image as the explorer used to build it:
// a private copy of the media that every completion batch and every torn
// prefix is applied to, event by event.
type committedOracle struct {
	rec     *Recorder
	img     []byte
	next    int // index of the next event to play
	instant int
}

// playTo plays events until the oracle stands at the given crash instant.
func (o *committedOracle) playTo(instant int) {
	for o.instant < instant {
		ev := o.rec.events[o.next]
		o.next++
		switch {
		case ev.submit != 0:
			if n := o.rec.nodes[ev.submit]; n == nil || !n.write {
				continue // a read starts no instant
			}
		case ev.torn != nil:
			left := ev.tornSec
			for _, id := range ev.torn {
				if left <= 0 {
					break
				}
				n := o.rec.nodes[id]
				if n == nil || !n.write {
					continue
				}
				n.applyPrefix(o.img, min(n.count, left))
				left -= n.count
			}
		case ev.failed != nil:
		default:
			for _, id := range ev.complete {
				if n := o.rec.nodes[id]; n != nil && n.write {
					n.apply(o.img)
				}
			}
		}
		o.instant++
	}
}

// TestWorkerImageIsReplayOfDone: at every job, the image a worker has rolled
// forward along the job's done prefix equals the committed image of the
// job's instant, byte for byte.
func TestWorkerImageIsReplayOfDone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rec     func() *Recorder
		minTorn int
	}{
		{"conventional", func() *Recorder { return recordRun(t, fsim.Conventional, 20) }, 0},
		{"flag-faulty", func() *Recorder { return recordFaulty(t, 30) }, 3},
		{"journaling", func() *Recorder { return recordRun(t, fsim.Journaling, 20) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec()
			if rec.torn < tc.minTorn {
				t.Fatalf("fault plan too tame: %d torn batches, want at least %d", rec.torn, tc.minTorn)
			}
			cfg := Config{Workers: 1, Budget: 4000, PerInstant: 32}
			cfg.setDefaults(1)
			x := newExplorer(rec, cfg, newCheckerPool(cfg))
			go x.walk()

			oracle := &committedOracle{rec: rec, img: slices.Clone(rec.base)}
			com := committedImage{img: slices.Clone(rec.base)}
			jobs, moves := 0, 0
			for j := range x.jobs {
				jobs++
				oracle.playTo(j.instant)
				if com.advance(j.done) {
					moves++
					if !bytes.Equal(com.img, oracle.img) {
						t.Fatalf("job %d (instant %d, %d done): worker image differs from the committed image",
							j.seq, j.instant, len(j.done))
					}
				}
				x.pool.putSubset(j.subset)
			}
			if !bytes.Equal(com.img, oracle.img) {
				t.Fatal("worker image differs from the committed image after the last job")
			}
			if moves < 10 {
				t.Errorf("the image moved %d times over %d jobs; want a timeline that exercises it", moves, jobs)
			}
		})
	}
}

// TestDFSSignatureMatchesDefinition: every signature a candidate is filed
// under — the DFS's carried ones included — equals signature() of that
// candidate computed from the committed fingerprints, and the DFS leaves
// those fingerprints as it found them.
func TestDFSSignatureMatchesDefinition(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  func() *Recorder
	}{
		{"flag", func() *Recorder { return recordRun(t, fsim.SchedulerFlag, 20) }},
		{"flag-faulty", func() *Recorder { return recordFaulty(t, 20) }},
		{"noorder", func() *Recorder { return recordRun(t, fsim.NoOrder, 10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec()
			cfg := Config{Workers: 1, Budget: 6000, PerInstant: 128}
			cfg.setDefaults(1)
			x := newExplorer(rec, cfg, newCheckerPool(cfg))
			drained := make(chan struct{})
			go func() {
				for j := range x.jobs {
					x.pool.putSubset(j.subset)
				}
				close(drained)
			}()

			type cand struct {
				sig     uint64
				subset  []*node
				partial *node
				psec    int
			}
			var cands []cand
			x.sigCheck = func(sig uint64, subset []*node, partial *node, psec int) {
				cands = append(cands, cand{sig, slices.Clone(subset), partial, psec})
			}
			total, partials := 0, 0
			checkInstant := func() {
				h, ok, xor := slices.Clone(x.doneH), slices.Clone(x.doneOK), x.doneXor
				cands = cands[:0]
				x.emitInstant()
				if !slices.Equal(h, x.doneH) || !slices.Equal(ok, x.doneOK) || xor != x.doneXor || len(x.undo) != 0 {
					t.Fatalf("instant %d: emitInstant left the committed fingerprints changed", x.instant)
				}
				for _, c := range cands {
					if want := x.signature(c.subset, c.partial, c.psec); c.sig != want {
						t.Fatalf("instant %d: candidate (%d writes, partial %v at %d sectors) filed under %#x, signature() gives %#x",
							x.instant, len(c.subset), c.partial != nil, c.psec, c.sig, want)
					}
					if c.partial != nil && len(c.subset) > 0 {
						partials++
					}
				}
				total += len(cands)
			}
			// explorer.walk, with every instant's emission checked.
			checkInstant()
			for _, ev := range rec.events {
				if x.stopped {
					break
				}
				if x.step(ev) {
					x.instant++
					checkInstant()
				}
			}
			close(x.jobs)
			<-drained
			if cap(x.undo) == 0 || partials == 0 {
				t.Errorf("%d candidates, %d torn writes over a non-empty subset, undo log cap %d: the DFS was not exercised",
					total, partials, cap(x.undo))
			}
		})
	}
}

// TestAllocFreeExploreNoImagePerInstant: an exploration allocates a fixed
// number of images (the worker's committed image and, under a recovery
// step, its recovery image; with the sector-indexed arrays, the limits
// allow three and four image sizes), one Baseline per worker and a small
// constant per state —
// not an image per crash instant, which is what copying the committed
// image after every emitted instant cost, not a Baseline per move of the
// committed image, which is what deriving one afresh instead of advancing
// it cost, and not a full fsck walk per recovered candidate, which is
// what checking Journaling's candidates by materializing them cost.
func TestAllocFreeExploreNoImagePerInstant(t *testing.T) {
	for _, tc := range []struct {
		scheme  fsim.Scheme
		files   int
		recover func([]byte)
		images  uint64
	}{
		{fsim.Conventional, 40, nil, 3},
		{fsim.Journaling, 80, func(img []byte) { fsck.ReplayJournal(img) }, 4},
	} {
		t.Run(tc.scheme.Slug(), func(t *testing.T) {
			rec := recordRun(t, tc.scheme, tc.files)
			cfg := Config{Workers: 1, Budget: 4000, PerInstant: 64, Recover: tc.recover}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res := rec.Explore(cfg)
			runtime.ReadMemStats(&after)

			if res.Stats.Instants < 100 {
				t.Fatalf("timeline has %d instants, want at least 100", res.Stats.Instants)
			}
			const (
				perBaseline = 1 << 20 // fsck.NewBaseline on this geometry: ≈ 600 KB
				perState    = 2 << 10
			)
			got := after.TotalAlloc - before.TotalAlloc
			limit := tc.images*uint64(len(rec.base)) + uint64(cfg.Workers)*perBaseline + uint64(res.Stats.Checked)*perState
			perInstant := uint64(res.Stats.Instants) * uint64(len(rec.base))
			t.Logf("%d instants, %d states, %d baseline advances: %.1f MB allocated (limit %.1f MB; an image per instant is %.1f MB)",
				res.Stats.Instants, res.Stats.Checked, res.Stats.BaselineAdvances, float64(got)/(1<<20), float64(limit)/(1<<20), float64(perInstant)/(1<<20))
			if got >= limit {
				t.Errorf("Explore allocated %d bytes over %d instants and %d states, limit %d", got, res.Stats.Instants, res.Stats.Checked, limit)
			}
			if limit*4 > perInstant {
				t.Errorf("limit %d is not well under an image per instant (%d): the guard guards nothing", limit, perInstant)
			}
		})
	}
}
