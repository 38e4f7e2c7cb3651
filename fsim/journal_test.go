package fsim_test

import (
	"fmt"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/fsck"
)

// journalChurns are op strings for fuzzOps (one byte per operation). The
// first is FuzzCrashConsistency's Journaling seed; the other two are
// mkdir-heavy (a new directory block is journaled just before the inode
// block that points at it) and were picked because, at 24 fragments, they
// reach violating states when a home write of a stalled buffer is not made
// to wait for the newest commit.
var journalChurns = [][]byte{
	{0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 0, 8, 16, 24, 1, 9, 3, 11, 2, 10, 18, 0, 8, 5, 0, 1, 2, 3, 4, 0},
	{134, 84, 52, 74, 100, 197, 136, 142, 150, 222, 48, 44, 220, 94, 70, 137, 174, 232, 184, 50, 73},
	{196, 165, 61, 234, 165, 18, 148, 82, 36, 188, 220, 160, 58, 218, 88, 106, 231, 243, 106, 56, 91, 28, 37},
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
func TestJournalLogSizeSweep(t *testing.T) {
	for _, frags := range []int32{24, 32, 48, 64} {
		for i, ops := range journalChurns {
			t.Run(fmt.Sprintf("frags%d/churn%d", frags, i), func(t *testing.T) {
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
				fuzzOps(sys, ops)
				sys.Crash(60 * fsim.Second)
				res := rec.Explore(crashmc.Config{
					Budget:     1 << 30,
					PerInstant: 1 << 30,
					Recover:    func(img []byte) { fsck.ReplayJournal(img) },
				})
				if frags <= 32 && sys.Jnl.Flushes == 0 {
					t.Error("log never filled: the sweep is not exercising blocked stable() calls")
				}
				if !res.Clean() {
					v := res.Violations[0]
					t.Fatalf("%d of %d crash states violate after replay; first at instant %d: %v",
						res.Stats.Violating, res.Stats.Checked, v.Instant, v.Findings)
				}
			})
		}
	}
}
