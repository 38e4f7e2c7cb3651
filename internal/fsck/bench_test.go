package fsck_test

import (
	"testing"

	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
)

// benchImg caches the mid-crash noorder image across benchmarks: the rig
// replay costs far more than any single check.
var benchImg []byte

func benchImage(b *testing.B) []byte {
	if benchImg == nil {
		total := totalRuntime(b, "noorder", false)
		benchImg = crashAt(b, "noorder", false, total/2)
	}
	return benchImg
}

func BenchmarkFsckFull(b *testing.B) {
	img := fsck.Bytes(benchImage(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsck.CheckImage(img)
	}
}

// BenchmarkFsckDelta is the crashmc steady state: one warm DeltaChecker
// re-verifying a one-sector delta against a cached baseline.
func BenchmarkFsckDelta(b *testing.B) {
	base := benchImage(b)
	sb := superblockOf(b, base)
	frag, off := sb.InodeFrag(5)
	d := newSliceDelta(base)
	d.dirty = append(d.dirty, (int64(frag)*ffs.FragSize+int64(off))/disk.SectorSize)
	dc := fsck.NewDeltaChecker(fsck.NewBaseline(fsck.Bytes(base), 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Check(d)
	}
}
