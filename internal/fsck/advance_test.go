package fsck_test

import (
	"fmt"
	"slices"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// mediaWrite is one write as it reached the media.
type mediaWrite struct {
	lbn  int64
	data []byte
}

// sectors lists the sectors w covers.
func (w mediaWrite) sectors() []int64 {
	var out []int64
	for i := 0; i < len(w.data)/disk.SectorSize; i++ {
		out = append(out, w.lbn+int64(i))
	}
	return out
}

// writeLog is a dev.Observer that keeps the writes a driver completes, in
// completion order: replayed over the media as it stood when the log was
// attached, it rebuilds every image the run left on the media.
type writeLog struct {
	submitted map[uint64]mediaWrite
	done      []mediaWrite
}

func (l *writeLog) RequestSubmitted(r *dev.Request, _ []uint64) {
	if r.Op == disk.Write {
		l.submitted[r.ID] = mediaWrite{r.LBN, append([]byte(nil), r.Data...)}
	}
}

func (l *writeLog) RequestsCompleted(ids []uint64, _ sim.Time) {
	for _, id := range ids {
		if w, ok := l.submitted[id]; ok {
			l.done = append(l.done, w)
		}
	}
}

// recordWrites runs the create/remove workload the crash checker explores
// under scheme and returns the pre-workload media and the completed writes.
func recordWrites(t testing.TB, scheme fsim.Scheme, files int) ([]byte, []mediaWrite) {
	t.Helper()
	sys, err := fsim.New(fsim.Options{Scheme: scheme, DiskBytes: 6 << 20, NInodes: 1024, CacheBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Disk.CloneImage()
	log := &writeLog{submitted: make(map[uint64]mediaWrite)}
	sys.Driver.SetObserver(log)
	var werr error
	sys.Run(func(p *fsim.Proc) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "mc")
		if err == nil {
			err = workload.CreateFiles(p, sys.FS, dir, files, 1024)
		}
		sys.FS.Sync(p)
		if err == nil {
			err = workload.RemoveFiles(p, sys.FS, dir, files)
		}
		sys.FS.Sync(p)
		werr = err
	})
	sys.Shutdown()
	if werr != nil {
		t.Fatalf("workload: %v", werr)
	}
	return base, log.done
}

// TestBaselineAdvanceMatchesNew rolls an image forward write by write
// through a recorded timeline, advancing one Baseline by each write's
// sectors. After every advance the Baseline must equal NewBaseline of the
// same bytes — records, reverse index and merge artifacts — and a
// DeltaChecker bound to each must report the same over random deltas drawn
// from the timeline. Midway the superblock sector is rewritten unchanged,
// then corrupted, then restored: three advances that must take the full
// derivation, the middle one onto a baseline whose superblock does not
// decode.
func TestBaselineAdvanceMatchesNew(t *testing.T) {
	for _, scheme := range []fsim.Scheme{fsim.Conventional, fsim.AsyncDurability} {
		t.Run(scheme.Slug(), func(t *testing.T) {
			base, writes := recordWrites(t, scheme, 20)
			if len(writes) < 50 {
				t.Fatalf("timeline has %d writes, want a longer one", len(writes))
			}
			d := newSliceDelta(base) // d.base is the image advanced in place
			bl := fsck.NewBaseline(fsck.Bytes(d.base), 1)
			dc := fsck.NewDeltaChecker(bl)
			rng := uint64(0xadba) ^ uint64(scheme)
			full, partial := 0, 0

			advance := func(label string, dirty []int64) {
				t.Helper()
				d.reset()
				if bl.Advance(dirty) {
					full++
				} else {
					partial++
				}
				fresh := fsck.NewBaseline(fsck.Bytes(d.base), 1)
				if diff := fsck.BaselineDiff(bl, fresh); diff != "" {
					t.Fatalf("%s: advanced baseline differs from a new one: %s", label, diff)
				}
				dc.Rebind(bl)
				fc := fsck.NewDeltaChecker(fresh)
				for trial := 0; trial < 3; trial++ {
					d.reset()
					for k := int(splitmix(&rng)%4) + 1; k > 0; k-- {
						w := writes[splitmix(&rng)%uint64(len(writes))]
						copy(d.cur[w.lbn*disk.SectorSize:], w.data)
						for _, s := range w.sectors() {
							if !slices.Contains(d.dirty, s) {
								d.dirty = append(d.dirty, s)
							}
						}
					}
					reportsEqual(t, label, dc.Check(d), fc.Check(d))
				}
			}
			// put writes data at sector s of the advanced image.
			put := func(s int64, data []byte) {
				copy(d.base[s*disk.SectorSize:], data)
				copy(d.cur[s*disk.SectorSize:], data)
			}

			for i, w := range writes {
				put(w.lbn, w.data)
				advance(fmt.Sprintf("write %d", i), w.sectors())
				if i != len(writes)/2 {
					continue
				}
				sb := slices.Clone(d.base[:disk.SectorSize])
				before := full
				advance("superblock rewritten", []int64{0})
				bad := slices.Clone(sb)
				bad[0] ^= 0xff // the magic
				put(0, bad)
				advance("superblock corrupted", []int64{0})
				put(0, sb)
				advance("superblock restored", []int64{0})
				if full-before != 3 {
					t.Fatalf("%d of 3 superblock-sector advances derived in full", full-before)
				}
			}
			t.Logf("%d writes: %d advances piecemeal, %d in full", len(writes), partial, full)
			if partial < len(writes)/2 {
				t.Errorf("%d of %d advances re-derived piecemeal; the incremental path was barely exercised", partial, full+partial)
			}
		})
	}
}
