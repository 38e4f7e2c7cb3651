package fsim_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// sourceTee sits between the driver and the crash recorder. It passes the
// timeline on, and checks at each write's completion that the sectors it
// committed hold the bytes it was submitted with — the bytes the recorder
// copied at submission and builds every crash image from.
type sourceTee struct {
	t         *testing.T
	rec       *crashmc.Recorder
	dsk       *disk.Disk
	submitted map[uint64]submission // writes in flight, by request ID
	checked   int
}

// submission is where a write goes and the bytes it was submitted with.
type submission struct {
	lbn  int64
	data []byte
}

func (o *sourceTee) RequestSubmitted(q *dev.Request, preds []uint64) {
	o.rec.RequestSubmitted(q, preds)
	if q.Op == disk.Write {
		o.submitted[q.ID] = submission{q.LBN, slices.Clone(q.Data)}
	}
}

func (o *sourceTee) RequestsCompleted(ids []uint64, at sim.Time) {
	o.rec.RequestsCompleted(ids, at)
	for _, id := range ids {
		s, ok := o.submitted[id]
		if !ok {
			continue
		}
		got := make([]byte, len(s.data))
		o.dsk.ReadAt(s.lbn, got)
		if !bytes.Equal(got, s.data) {
			o.t.Errorf("write %d committed to sectors %d.. bytes other than those it was submitted with", id, s.lbn)
		}
		delete(o.submitted, id)
		o.checked++
	}
}

// TestCommittedSectorsMatchSubmission: under the schemes that run the
// block-copy enhancement (-CB), a write shares its buffer's storage until
// the buffer is modified, so a store that bypassed PrepareModify would
// reach the media without the crash recorder ever seeing it. A directory
// grown block by block, then emptied, exercises the allocation paths that
// issue a new block's write before storing into it.
func TestCommittedSectorsMatchSubmission(t *testing.T) {
	for _, opt := range []fsim.Options{
		{Scheme: fsim.SchedulerFlag},
		{Scheme: fsim.SchedulerChains},
		{Scheme: fsim.AsyncDurability, Explicit: true, CB: true},
	} {
		t.Run(fmt.Sprint(opt.Scheme), func(t *testing.T) {
			opt.DiskBytes, opt.NInodes, opt.CacheBytes = 8<<20, 1024, 2<<20
			sys, err := fsim.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sys.Cache.Config().CB {
				t.Fatal("setup: the scheme does not run -CB")
			}
			tee := &sourceTee{t: t, rec: crashmc.Attach(sys.Driver, sys.Disk), dsk: sys.Disk,
				submitted: map[uint64]submission{}}
			sys.Driver.SetObserver(tee)
			const files = 700 // entries for more than one 8 KB directory block
			sys.Run(func(p *fsim.Proc) {
				dir, err := sys.FS.Mkdir(p, fsim.RootIno, "d")
				if err == nil {
					err = workload.CreateFiles(p, sys.FS, dir, files, 1024)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if ip, _ := sys.FS.Stat(p, dir); ip.Size <= ffs.BlockSize {
					t.Errorf("setup: the directory grew to %d bytes, not past one block", ip.Size)
				}
				if err := workload.RemoveFiles(p, sys.FS, dir, files); err != nil {
					t.Error(err)
				}
				sys.FS.Sync(p)
			})
			sys.Shutdown()
			if tee.checked == 0 || len(tee.submitted) != 0 {
				t.Errorf("%d writes checked, %d never completed", tee.checked, len(tee.submitted))
			}
		})
	}
}
