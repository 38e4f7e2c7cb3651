package ffs

import (
	"math/rand"
	"testing"
)

// bitwiseFirstFit is allocFrags' first fit tested a bit at a time, as it
// was written before the free map was tested a block byte at a time: blocks
// in order, each start that keeps the run inside the block, each fragment
// of the run.
func bitwiseFirstFit(bm []byte, from, to int32, n int) (int32, bool) {
	runFree := func(start int32, n int) bool {
		for i := int32(0); i < int32(n); i++ {
			if bitGet(bm, start+i) {
				return false
			}
		}
		return true
	}
	blk := from / BlockFrags * BlockFrags
	if blk < from {
		blk += BlockFrags
	}
	for ; blk+BlockFrags <= to; blk += BlockFrags {
		for s := blk; s+int32(n) <= blk+BlockFrags; s++ {
			if runFree(s, n) {
				return s, true
			}
			if n == BlockFrags {
				break // full blocks only at aligned starts
			}
		}
	}
	return 0, false
}

func TestFirstFitMatchesBitwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bm := make([]byte, 64)
	frags := int32(len(bm) * 8)
	for trial := 0; trial < 3000; trial++ {
		// Bitmaps from nearly empty to nearly full, some with whole blocks
		// taken, as a filling allocation group has.
		density := rng.Float64()
		for i := range bm {
			bm[i] = 0
			if rng.Intn(4) == 0 {
				bm[i] = 0xFF
				continue
			}
			for b := 0; b < 8; b++ {
				if rng.Float64() < density {
					bm[i] |= 1 << b
				}
			}
		}
		// Group bounds that need not be block multiples.
		from := rng.Int31n(frags)
		to := from + rng.Int31n(frags-from+1)
		for n := 1; n <= BlockFrags; n++ {
			got, ok := firstFit(bm, from, to, n)
			want, wok := bitwiseFirstFit(bm, from, to, n)
			if got != want || ok != wok {
				t.Fatalf("trial %d: firstFit(%d..%d, %d) = %d %v, bit by bit %d %v (bitmap %x)",
					trial, from, to, n, got, ok, want, wok, bm)
			}
			// tryExtendFrags' test of the fragments after a run.
			start := rng.Int31n(frags/BlockFrags)*BlockFrags + rng.Int31n(int32(BlockFrags-n+1))
			free := true
			for i := int32(0); i < int32(n); i++ {
				free = free && !bitGet(bm, start+i)
			}
			if blockRunFree(bm, start, n) != free {
				t.Fatalf("trial %d: blockRunFree(%d, %d) = %v, bit by bit %v", trial, start, n, !free, free)
			}
		}
	}
}
