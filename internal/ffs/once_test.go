package ffs_test

import (
	"strings"
	"testing"

	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// sloppy is No Order with seeded protocol bugs, in the idiom of
// core.SoftUpdates.DropEntryDeps: it runs the deferred half of a removal or
// of a free twice, or never — the two ways to break the "exactly once" half
// of order.go's contract. A record is a value: the Twice bugs finish the
// copy No Order was handed and then the scheme's own, the OwnTwice bugs the
// scheme's own copy twice.
type sloppy struct {
	*ordering.NoOrder
	removeTwice, removeOwnTwice, removeNever bool
	freeTwice, freeOwnTwice, freeNever       bool
}

func (o *sloppy) RemoveEntry(p *sim.Proc, rec ffs.RemRec) {
	if o.removeOwnTwice {
		rec.FS.FinishRemove(p, &rec)
		rec.FS.FinishRemove(p, &rec)
		return
	}
	if !o.removeNever {
		o.NoOrder.RemoveEntry(p, rec)
	}
	if o.removeTwice {
		rec.FS.FinishRemove(p, &rec)
	}
}

func (o *sloppy) FreeBlocks(p *sim.Proc, rec ffs.FreeRec) {
	if o.freeOwnTwice {
		rec.FS.ApplyFree(p, &rec)
		rec.FS.ApplyFree(p, &rec)
		return
	}
	if !o.freeNever {
		o.NoOrder.FreeBlocks(p, rec)
	}
	if o.freeTwice {
		rec.FS.ApplyFree(p, &rec)
	}
}

// TestExactlyOnceIsChecked: a scheme that finishes a record twice panics at
// the second call, not in some later crash image; one that never finishes it
// leaves FS.Unfinished non-zero after a Sync.
func TestExactlyOnceIsChecked(t *testing.T) {
	cases := []struct {
		name       string
		bug        sloppy
		panics     string
		unfinished int
	}{
		{name: "correct"},
		{name: "FinishRemove twice", bug: sloppy{removeTwice: true}, panics: "FinishRemove called twice"},
		{name: "ApplyFree twice", bug: sloppy{freeTwice: true}, panics: "ApplyFree called twice"},
		{name: "FinishRemove twice on one copy", bug: sloppy{removeOwnTwice: true}, panics: "FinishRemove called twice"},
		{name: "ApplyFree twice on one copy", bug: sloppy{freeOwnTwice: true}, panics: "ApplyFree called twice"},
		{name: "FinishRemove never", bug: sloppy{removeNever: true}, unfinished: 1},
		{name: "ApplyFree never", bug: sloppy{freeNever: true}, unfinished: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ord := tc.bug
			ord.NoOrder = ordering.NewNoOrder()
			r := newRig(t, &ord, ffs.Config{})
			var panicked any
			r.run(t, func(p *sim.Proc) {
				defer func() { panicked = recover() }()
				ino, err := r.fs.Create(p, ffs.RootIno, "f")
				if err == nil {
					err = r.fs.WriteAt(p, ino, 0, make([]byte, 3000))
				}
				if err == nil {
					err = r.fs.Unlink(p, ffs.RootIno, "f")
				}
				if err != nil {
					t.Fatal(err)
				}
				r.fs.Sync(p)
			})
			if msg, _ := panicked.(string); (tc.panics == "") != (panicked == nil) || !strings.Contains(msg, tc.panics) {
				t.Fatalf("panic %v, want %q", panicked, tc.panics)
			}
			if panicked == nil && r.fs.Unfinished() != tc.unfinished {
				t.Errorf("Unfinished() = %d after Sync, want %d", r.fs.Unfinished(), tc.unfinished)
			}
		})
	}
}
