package fsim_test

import (
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/fsck"
)

// FuzzCrashConsistency drives a byte-coded operation sequence against a
// randomly chosen safe scheme with fault injection active, crashes the run
// at a fuzzer-chosen instant, and bounded-exhaustively enumerates the crash
// images of the recorded timeline: every one of them must satisfy fsck's
// ordering rules. The property is gated on the driver reporting no
// exhausted-retry write errors — after a reported error the scheme's
// durability premise is void (the conformance suite pins that boundary).
//
// Run the smoke locally with:
//
//	go test ./fsim -run FuzzCrashConsistency -fuzz FuzzCrashConsistency -fuzztime 60s
//
// The fuzzSafeSchemes list excludes NVRAM: its recovery needs a log replay
// the image enumerator deliberately does not model. Journaling's recovery
// (journal replay over the image) IS modeled, via crashmc's Recover hook;
// the fuzz options shrink its log region so op sequences of a few dozen
// wrap it several times. AsyncDurability runs with a tiny in-flight window
// so the admission throttle is constantly exercised.
var fuzzSafeSchemes = []fsim.Scheme{
	fsim.Conventional, fsim.SchedulerFlag, fsim.SchedulerChains, fsim.SoftUpdates,
	fsim.Journaling, fsim.AsyncDurability,
}

// fuzzOps interprets the coded op sequence on a 16-name namespace. Every
// byte is one operation; unrepresentable ops (removing a missing file)
// fail at the FS layer and are simply ignored, so all byte strings are
// valid programs.
func fuzzOps(sys *fsim.System, ops []byte) {
	sys.Eng.Spawn("fuzz", func(p *fsim.Proc) {
		fs := sys.FS
		dir, err := fs.Mkdir(p, fsim.RootIno, "z")
		if err != nil {
			return
		}
		name := func(b byte) string { return fmt.Sprintf("n%d", b%16) }
		for _, b := range ops {
			switch b % 6 {
			case 0:
				fs.Create(p, dir, name(b>>3))
			case 1:
				if ino, err := fs.Lookup(p, dir, name(b>>3)); err == nil {
					size := (int(b>>3)%4 + 1) * 1024
					fs.WriteAt(p, ino, 0, fsck.MakeStampedData(ino, size))
				}
			case 2:
				fs.Unlink(p, dir, name(b>>3))
			case 3:
				fs.Rename(p, dir, name(b>>3), dir, name(b>>4+1))
			case 4:
				fs.Mkdir(p, dir, name(b>>3))
			case 5:
				fs.Sync(p)
			}
		}
	})
}

func FuzzCrashConsistency(f *testing.F) {
	// Seeds cover each scheme, a create/write/remove mix, a rename burst,
	// and a fault-heavy timeline; the on-disk corpus under
	// testdata/fuzz/FuzzCrashConsistency adds crash points near the syncer
	// horizon.
	f.Add([]byte{0, 1, 0, 9, 1, 2, 5}, uint8(0), uint32(800), int64(1))
	f.Add([]byte{0, 8, 16, 1, 9, 3, 11, 3, 5, 2}, uint8(1), uint32(2500), int64(2))
	f.Add([]byte{0, 0, 4, 12, 1, 17, 2, 10, 5, 0, 1, 2}, uint8(2), uint32(35000), int64(3))
	f.Add([]byte{0, 1, 5, 0, 1, 5, 2, 2, 3}, uint8(3), uint32(52000), int64(4))
	// Journaling with a churn long enough to lap the shrunken 24-frag log
	// region several times (wrap-around replay), crashing mid-flush.
	f.Add([]byte{0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 0, 8, 16, 24, 1, 9, 3, 11, 2, 10, 18, 0, 8, 5, 0, 1, 2, 3, 4, 0}, uint8(4), uint32(35000), int64(5))
	// AsyncDurability with more naming ops than its 4-op fuzz window, so the
	// admission throttle and group commit both fire before the crash.
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 2, 10, 18, 26, 0, 8, 16, 3, 11, 5, 0, 2}, uint8(5), uint32(2500), int64(6))

	f.Fuzz(func(t *testing.T, ops []byte, schemeSel uint8, crashMS uint32, faultSeed int64) {
		if len(ops) > 48 {
			ops = ops[:48] // keep one execution cheap; long tails add nothing
		}
		scheme := fuzzSafeSchemes[int(schemeSel)%len(fuzzSafeSchemes)]
		opt := fsim.Options{
			Scheme:     scheme,
			DiskBytes:  4 << 20,
			NInodes:    512,
			CacheBytes: 1 << 20,
			Faults: fsim.FaultSpec{
				Seed:            faultSeed,
				TransientPer10k: 100,
				TornPer10k:      100,
				LatencyPer10k:   50,
				BadSectors:      2,
			},
			MaxRetries: 8,
		}
		switch scheme {
		case fsim.Journaling:
			opt.JournalFrags = 24 // a handful of txns per lap: wrap constantly
		case fsim.AsyncDurability:
			opt.AsyncWindow = 4 // tiny window: the admission throttle fires
		}
		sys, err := fsim.New(opt)
		if err != nil {
			t.Fatalf("fsim.New(%v): %v", scheme, err)
		}
		rec := crashmc.Attach(sys.Driver, sys.Disk)
		fuzzOps(sys, ops)
		at := fsim.Time(200*fsim.Millisecond) + fsim.Time(crashMS%60000)*fsim.Millisecond
		sys.Crash(at)
		if sys.CollectStats().Faults.Errors > 0 {
			return // durability premise void; nothing to assert
		}
		cfg := crashmc.Config{Workers: 2, Budget: 400, PerInstant: 64}
		if cfg.Recover, err = scheme.MediaRecovery(); err != nil {
			t.Fatal(err)
		}
		res := rec.Explore(cfg)
		if !res.Clean() {
			v := res.Violations[0]
			t.Fatalf("%v: %d violating crash images (ops=%v crash=%v seed=%d); first at instant %d: %v",
				scheme, res.Stats.Violating, ops, at, faultSeed, v.Instant, v.Findings)
		}
	})
}
