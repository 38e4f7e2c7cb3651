package fsck_test

import (
	"fmt"
	"slices"
	"testing"

	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// sliceDelta is a test DeltaImage: a pristine base plus a materialized
// modified copy and the list of sectors where they (may) differ. Range
// reads the modified copy directly, so a full check of the same object is
// trivially a check of the materialized delta.
type sliceDelta struct {
	base, cur []byte
	dirty     []int64
}

func (d *sliceDelta) Len() int64                { return int64(len(d.cur)) }
func (d *sliceDelta) Range(off, n int64) []byte { return d.cur[off : off+n] }
func (d *sliceDelta) Base() fsck.Image          { return fsck.Bytes(d.base) }
func (d *sliceDelta) DirtySectors() []int64     { return d.dirty }

// reset restores the modified copy to the base and clears the dirty set.
func (d *sliceDelta) reset() {
	for _, s := range d.dirty {
		copy(d.cur[s*disk.SectorSize:(s+1)*disk.SectorSize], d.base[s*disk.SectorSize:(s+1)*disk.SectorSize])
	}
	d.dirty = d.dirty[:0]
}

func newSliceDelta(base []byte) *sliceDelta {
	return &sliceDelta{base: base, cur: append([]byte(nil), base...)}
}

func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z ^= z >> 30
	z *= 0xBF58476D1CE4B9FD
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func reportsEqual(t *testing.T, label string, got, want *fsck.Report) {
	t.Helper()
	// got may reuse a zero-length (non-nil) Findings slice; compare content.
	if len(got.Findings) != len(want.Findings) {
		t.Fatalf("%s: findings differ\ngot:  %v\nwant: %v", label, got.Findings, want.Findings)
	}
	for i := range got.Findings {
		if got.Findings[i] != want.Findings[i] {
			t.Fatalf("%s: finding %d differs\ngot:  %+v\nwant: %+v", label, i, got.Findings[i], want.Findings[i])
		}
	}
	if len(got.Refs) != len(want.Refs) {
		t.Fatalf("%s: refs differ\ngot:  %v\nwant: %v", label, got.Refs, want.Refs)
	}
	for ino, n := range want.Refs {
		if got.Refs[ino] != n {
			t.Fatalf("%s: refs[%d] = %d, want %d", label, ino, got.Refs[ino], n)
		}
	}
	if got.AllocatedInodes != want.AllocatedInodes || got.ReferencedFrags != want.ReferencedFrags {
		t.Fatalf("%s: counters differ: alloc %d/%d, frags %d/%d", label,
			got.AllocatedInodes, want.AllocatedInodes, got.ReferencedFrags, want.ReferencedFrags)
	}
}

// TestDeltaCheckerMatchesFull throws randomized sector corruptions —
// including the inode table, directory data, the bitmaps, and occasionally
// the superblock itself (the full-fallback path) — at a DeltaChecker and
// requires its spliced report to equal a from-scratch CheckImage of the
// materialized bytes every time.
func TestDeltaCheckerMatchesFull(t *testing.T) {
	for _, src := range []struct {
		name string
		at   int // percent of the workload runtime
	}{
		{"clean", 100},
		{"midcrash", 50},
	} {
		t.Run(src.name, func(t *testing.T) {
			total := totalRuntime(t, "noorder", false)
			base := crashAt(t, "noorder", false, total*sim.Time(src.at)/100)
			d := newSliceDelta(base)
			bl := fsck.NewBaseline(fsck.Bytes(base), 1)
			dc := fsck.NewDeltaChecker(bl)
			nsec := int64(len(base)) / disk.SectorSize

			rng := uint64(0xfcc1 + src.at)
			for trial := 0; trial < 80; trial++ {
				d.reset()
				for k := int(splitmix(&rng)%8) + 1; k > 0; k-- {
					var s int64
					if splitmix(&rng)%16 == 0 {
						s = 0 // superblock: must fall back, and still agree
					} else {
						s = int64(splitmix(&rng) % uint64(nsec))
					}
					sec := d.cur[s*disk.SectorSize : (s+1)*disk.SectorSize]
					sec[splitmix(&rng)%disk.SectorSize] = byte(splitmix(&rng))
					d.dirty = append(d.dirty, s)
				}
				inc := dc.Check(d)
				full := fsck.CheckImage(fsck.Bytes(d.cur))
				reportsEqual(t, src.name, inc, full)
			}
			if dc.Stats.Checks != 80 {
				t.Fatalf("checks = %d, want 80", dc.Stats.Checks)
			}
			if dc.Stats.FullFallbacks == 0 {
				t.Error("no superblock-dirty trial exercised the full fallback")
			}
			if dc.Stats.FullFallbacks == dc.Stats.Checks {
				t.Error("every trial fell back; nothing ran incrementally")
			}
		})
	}
}

// TestDeltaCheckerSurvivesStampWrap forces every generation counter of a
// DeltaChecker to its maximum before each check, so every stamped set
// wraps on each check, and requires the spliced report to still equal a
// full check. Half the corrupted sectors are live directory blocks, so
// the directory replay sets wrap with findings in them, not only pass 1's.
func TestDeltaCheckerSurvivesStampWrap(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	base := crashAt(t, "noorder", false, total/2)
	dirSecs := liveDirSectors(t, base)
	d := newSliceDelta(base)
	dc := fsck.NewDeltaChecker(fsck.NewBaseline(fsck.Bytes(base), 1))
	nsec := uint64(len(base)) / disk.SectorSize

	rng := uint64(0x57a3)
	for trial := 0; trial < 200; trial++ {
		d.reset()
		for k := int(splitmix(&rng)%8) + 1; k > 0; k-- {
			s := int64(1 + splitmix(&rng)%(nsec-1)) // never the superblock: no fallback
			if splitmix(&rng)%2 == 0 {
				s = dirSecs[splitmix(&rng)%uint64(len(dirSecs))] / disk.SectorSize
			}
			sec := d.cur[s*disk.SectorSize : (s+1)*disk.SectorSize]
			sec[splitmix(&rng)%disk.SectorSize] = byte(splitmix(&rng))
			if !slices.Contains(d.dirty, s) {
				d.dirty = append(d.dirty, s)
			}
		}
		fsck.WrapStamps(dc)
		reportsEqual(t, fmt.Sprintf("trial %d", trial), dc.Check(d), fsck.CheckImage(fsck.Bytes(d.cur)))
	}
	if dc.Stats.SplicedMerges == 0 {
		t.Fatalf("no trial took the spliced merge: %+v", dc.Stats)
	}
}

// TestEmptyDeltaMatchesCheckImage: a Baseline read back through a delta
// that dirties nothing reports exactly what the one-shot CheckImage does,
// findings in the same order.
func TestEmptyDeltaMatchesCheckImage(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	want := fsck.CheckImage(fsck.Bytes(img))
	if len(want.Findings) == 0 {
		t.Fatal("mid-crash noorder image unexpectedly clean; test needs findings to order")
	}
	dc := fsck.NewDeltaChecker(fsck.NewBaseline(fsck.Bytes(img), 1))
	reportsEqual(t, "empty delta", dc.Check(newSliceDelta(img)), want)
}

// TestCheckImageRecycledState: one-shot checks recycle their record arrays
// and ownership table through a pool, so a check must report the same
// whatever image the state served before — here a violating mid-crash image
// between two checks of a clean one.
func TestCheckImageRecycledState(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	clean := crashAt(t, "noorder", false, total)
	crashed := crashAt(t, "noorder", false, total/2)
	want := fsck.CheckImage(fsck.Bytes(clean))
	mid := fsck.CheckImage(fsck.Bytes(crashed))
	if len(mid.Findings) == 0 {
		t.Fatal("mid-crash noorder image unexpectedly clean; nothing to leak into the next check")
	}
	reportsEqual(t, "recycled", fsck.CheckImage(fsck.Bytes(clean)), want)
	reportsEqual(t, "recycled", fsck.CheckImage(fsck.Bytes(crashed)), mid)
}

// TestAllocFreeDeltaCheck pins the steady-state incremental check path at
// zero heap allocations: re-deriving a dirty inode-table sector against a
// warm DeltaChecker must reuse every piece of scratch (stamped sets, the
// ownership table, record slices, the report and its reference counts).
func TestAllocFreeDeltaCheck(t *testing.T) {
	total := totalRuntime(t, "conventional", false)
	base := crashAt(t, "conventional", false, total)
	sb := superblockOf(t, base)

	// Dirty the inode-table sector holding inode 3 (content unchanged:
	// DirtySectors is an over-approximation, exactly like a crash overlay
	// rewriting identical bytes). The checker still re-derives everything
	// reachable from that sector.
	frag, off := sb.InodeFrag(3)
	s := (int64(frag)*ffs.FragSize + int64(off)) / disk.SectorSize
	d := newSliceDelta(base)
	d.dirty = append(d.dirty, s)
	// And every directory chunk, so each directory is re-parsed: the dirent
	// cursor is on this path too.
	for _, chunk := range liveDirSectors(t, base) {
		d.dirty = append(d.dirty, chunk/disk.SectorSize)
	}

	bl := fsck.NewBaseline(fsck.Bytes(base), 1)
	dc := fsck.NewDeltaChecker(bl)
	dc.Check(d) // warm the scratch: report capacity, dep slices
	dc.Check(d)

	if avg := testing.AllocsPerRun(50, func() { dc.Check(d) }); avg != 0 {
		t.Errorf("steady-state incremental check allocates %.1f times per run, want 0", avg)
	}
	if dc.Stats.FullFallbacks != 0 {
		t.Fatalf("alloc test fell back to full checks: %+v", dc.Stats)
	}
	if dc.Stats.SplicedMerges == 0 || dc.Stats.DirsReparsed == 0 {
		t.Fatalf("alloc test never took the spliced merge, or re-parsed no directory: %+v", dc.Stats)
	}
}
