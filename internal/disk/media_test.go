package disk

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestChunkedMediaMatchesFlatReference drives the lazily chunked media and a
// flat byte slice with the same seeded stream of Commit, CommitPrefix and
// WriteAt calls, and after every call requires the media to read back as
// the slice. The stream aims at chunk boundaries and at the short last
// chunk, writes all-zero runs into chunks that exist and into chunks that
// do not, and writes zeros over earlier non-zero writes. Half the seeds
// flatten the media with Image midway and then require every later write
// to show through that view; every seed takes a CloneImage early and
// requires it to keep the bytes of its moment.
func TestChunkedMediaMatchesFlatReference(t *testing.T) {
	var zeroIntoMissing, zeroIntoPresent int
	for seed := int64(1); seed <= 8; seed++ {
		m, p := checkMediaAgainstFlat(t, seed)
		zeroIntoMissing += m
		zeroIntoPresent += p
	}
	if zeroIntoMissing == 0 || zeroIntoPresent == 0 {
		t.Errorf("all-zero writes: %d into missing chunks, %d into present ones; the stream must cover both", zeroIntoMissing, zeroIntoPresent)
	}
	t.Logf("all-zero writes: %d into missing chunks, %d into present ones", zeroIntoMissing, zeroIntoPresent)
}

type span struct{ off, n int64 }

func checkMediaAgainstFlat(t *testing.T, seed int64) (zeroIntoMissing, zeroIntoPresent int) {
	t.Helper()
	const steps = 300
	// Fifteen whole chunks and a short sixteenth of seven sectors.
	d := New(HPC2447(), 15*chunkBytes+7*SectorSize)
	size := d.Sectors() * SectorSize
	ref := make([]byte, size)
	rng := rand.New(rand.NewSource(seed))
	var written []span // earlier writes that carried a non-zero byte
	var img, clone, cloneRef []byte
	got := make([]byte, size)

	// pick returns a run of at most maxLen bytes, aligned to align, that
	// often straddles a chunk boundary or ends at the end of the media.
	pick := func(align, maxLen int64) (off, n int64) {
		n = (1 + rng.Int63n(maxLen/align)) * align
		switch rng.Intn(4) {
		case 0, 1:
			b := (1 + rng.Int63n(size/chunkBytes)) * chunkBytes
			off = b - (1+rng.Int63n(n))/align*align
		case 2:
			off = size - n
		default:
			off = rng.Int63n(size-n+1) / align * align
		}
		return max(0, min(off, size-n)), n
	}

	for step := 0; step < steps; step++ {
		if step == steps/6 {
			clone, cloneRef = d.CloneImage(), bytes.Clone(ref)
		}
		if step == steps/2 && seed%2 == 1 {
			img = d.Image()
		}

		op := rng.Intn(3) // Commit, CommitPrefix, WriteAt
		align := int64(SectorSize)
		if op == 2 {
			align = 1
		}
		off, n := pick(align, 24*SectorSize)
		data := make([]byte, n)
		switch kind := rng.Intn(4); {
		case kind == 0 && len(written) > 0:
			// Zeros over an earlier non-zero write, rounded out to the
			// alignment of this call.
			w := written[rng.Intn(len(written))]
			off = w.off / align * align
			n = (w.off+w.n+align-1)/align*align - off
			data = make([]byte, n)
		case kind == 1:
			data[rng.Int63n(n)] = byte(1 + rng.Intn(255)) // zeros but one byte
		case kind == 2:
			rng.Read(data)
		} // otherwise all zeros

		applied := n
		switch op {
		case 0:
			d.Commit(off/SectorSize, data)
		case 1:
			k := rng.Intn(int(n/SectorSize)+3) - 1
			d.CommitPrefix(off/SectorSize, data, k)
			applied = int64(max(0, min(k, int(n/SectorSize)))) * SectorSize
		case 2:
			d.WriteAt(off, data)
		}
		if applied > 0 && bytes.Count(data[:applied], []byte{0}) == int(applied) {
			if img == nil && !d.HasChunk(off) {
				zeroIntoMissing++
			} else {
				zeroIntoPresent++
			}
		} else if applied > 0 {
			written = append(written, span{off, applied})
		}
		copy(ref[off:], data[:applied])

		d.ReadAt(0, got)
		if i := firstDiff(got, ref); i >= 0 {
			t.Fatalf("seed %d step %d: media byte %d (chunk %d) reads %#x, want %#x", seed, step, i, i/chunkBytes, got[i], ref[i])
		}
		if img != nil {
			if i := firstDiff(img, ref); i >= 0 {
				t.Fatalf("seed %d step %d: Image() byte %d is %#x after a later write, want %#x", seed, step, i, img[i], ref[i])
			}
		}
	}
	if i := firstDiff(clone, cloneRef); i >= 0 {
		t.Fatalf("seed %d: CloneImage byte %d moved to %#x with later writes, want %#x", seed, i, clone[i], cloneRef[i])
	}
	return zeroIntoMissing, zeroIntoPresent
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestAllocFreeZeroWrite: an all-zero Commit into media with no chunk there
// allocates nothing and materializes no chunk; a Commit into chunks that
// already exist allocates nothing either, zeros included.
func TestAllocFreeZeroWrite(t *testing.T) {
	d := testDisk()
	const lbn = 3*chunkBytes/SectorSize - 4 // straddles a chunk boundary
	zeros := make([]byte, 16*SectorSize)
	first, last := int64(lbn*SectorSize), int64(lbn*SectorSize+len(zeros)-1)
	if a := testing.AllocsPerRun(100, func() { d.Commit(lbn, zeros) }); a != 0 {
		t.Errorf("all-zero Commit into missing chunks: %v allocations, want 0", a)
	}
	if d.HasChunk(first) || d.HasChunk(last) {
		t.Fatal("an all-zero Commit materialized a chunk")
	}

	data := bytes.Repeat([]byte{0x5a}, len(zeros))
	d.Commit(lbn, data)
	if !d.HasChunk(first) || !d.HasChunk(last) {
		t.Fatal("a non-zero Commit did not materialize the chunks it spans")
	}
	if a := testing.AllocsPerRun(100, func() {
		d.Commit(lbn, data)
		d.Commit(lbn, zeros)
	}); a != 0 {
		t.Errorf("Commit into existing chunks: %v allocations, want 0", a)
	}
	got := make([]byte, len(zeros))
	d.ReadAt(lbn, got)
	if !bytes.Equal(got, zeros) {
		t.Error("zeros written over a present chunk did not land")
	}
}
