package fsim_test

import (
	"bytes"
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/fsck"
)

// journalChurns are op strings for fuzzOps (one byte per operation). The
// first is FuzzCrashConsistency's Journaling seed; the other two are
// mkdir-heavy (a new directory block is journaled just before the inode
// block that points at it) and were picked because, at 32 fragments, they
// reach violating states (BadDirFormat after replay) when a home write of a
// stalled buffer is not made to wait for the newest commit. With delta
// images the log fills more slowly, and the churns that pinned this before
// them no longer stall where it matters.
var journalChurns = [][]byte{
	{0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 0, 8, 16, 24, 1, 9, 3, 11, 2, 10, 18, 0, 8, 5, 0, 1, 2, 3, 4, 0},
	{4, 255, 208, 221, 188, 206, 118, 142, 234, 112, 78, 1, 129, 154, 82, 250, 102, 248, 178, 240, 250, 198, 223, 209, 117, 221, 144, 88, 184, 190},
	{153, 99, 190, 104, 40, 66, 26, 196, 4, 82, 52, 115, 242, 94, 20, 195, 193, 168, 88, 3, 80, 58, 122, 82, 223, 125, 129, 138, 148, 148, 70, 100, 166, 171, 76, 152, 56, 239, 204},
}

// TestJournalLogSizeSweep checks every crash state of three churns at four
// log sizes small enough that stable() keeps blocking for log space, with
// no faults and no exploration budget. The size matters: when stable(b)
// blocks, checkpointing or the syncer may write b home carrying the change
// that is about to be journaled, and that write must wait for the commits
// of everything journaled before it — at 32 fragments the pre-group-commit
// journal let a mkdir's inode block reach the disk ahead of the new
// directory block's transaction (BadDirFormat after replay), while 24 and
// 48 happened to be clean.
//
// Each churn runs a second time beside a process that, as the churn starts,
// writes a file and fsyncs it and then creates an empty one and fsyncs that
// (nothing but the commit makes it durable). Every crash state cut after
// the second fsync returned — while the churn laps the log, checkpoints and
// reclaims over the transactions that made the files durable — must, after
// replay, still hold both files: size, block map and data.
func TestJournalLogSizeSweep(t *testing.T) {
	for _, frags := range []int32{24, 32, 48, 64} {
		for i, ops := range journalChurns {
			for _, fsync := range []bool{false, true} {
				name := fmt.Sprintf("frags%d/churn%d", frags, i)
				if fsync {
					name += "/fsync"
				}
				t.Run(name, func(t *testing.T) { journalSweep(t, frags, ops, fsync) })
			}
		}
	}
}

func journalSweep(t *testing.T, frags int32, ops []byte, fsync bool) {
	sys, err := fsim.New(fsim.Options{
		Scheme:       fsim.Journaling,
		DiskBytes:    4 << 20,
		NInodes:      512,
		CacheBytes:   1 << 20,
		JournalFrags: frags,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := crashmc.Attach(sys.Driver, sys.Disk)
	explore := func(cfg crashmc.Config) {
		t.Helper()
		cfg.Budget, cfg.PerInstant = 1<<30, 1<<30
		cfg.Recover = func(img []byte) { fsck.ReplayJournal(img) }
		if res := rec.Explore(cfg); !res.Clean() {
			v := res.Violations[0]
			t.Fatalf("%d of %d crash states from instant %d on violate after replay; first at instant %d: %v",
				res.Stats.Violating, res.Stats.Checked, cfg.From, v.Instant, v.Findings)
		}
	}
	var spooled, empty fsim.Ino
	var returned int // the crash instant at which the second Fsync returned
	payload := bytes.Repeat([]byte("mail"), 700)
	if fsync {
		sys.Eng.Spawn("fsync", func(p *fsim.Proc) {
			a, err := sys.FS.Create(p, fsim.RootIno, "spooled")
			if err == nil {
				err = sys.FS.WriteAt(p, a, 0, payload)
			}
			if err == nil {
				err = sys.FS.Fsync(p, a)
			}
			var b fsim.Ino
			if err == nil {
				b, err = sys.FS.Create(p, fsim.RootIno, "empty")
			}
			if err == nil {
				err = sys.FS.Fsync(p, b)
			}
			if err != nil {
				t.Error(err)
				return
			}
			spooled, empty, returned = a, b, rec.Instant()
		})
	}
	fuzzOps(sys, ops)
	sys.Crash(60 * fsim.Second)
	if frags <= 32 && sys.Jnl.Flushes == 0 {
		t.Error("log never filled: the sweep is not exercising blocked stable() calls")
	}
	explore(crashmc.Config{})
	if fsync {
		if empty == 0 {
			t.Fatal("the fsyncs never returned")
		}
		sb := sys.FS.Superblock()
		explore(crashmc.Config{From: returned, ExtraCheck: func(img fsck.Image) []string {
			return append(fsyncedFileLost(img, sb, spooled, payload), fsyncedFileLost(img, sb, empty, nil)...)
		}})
	}
}
