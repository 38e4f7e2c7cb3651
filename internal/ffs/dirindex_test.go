package ffs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"metaupdate/internal/cache"
)

// indexRig keeps one directory block twice: oracle is changed only by the
// scans (findEntry, addEntryInData, removeEntryInData), buf only through
// its index. After every step the two must hold the same bytes, every
// answer must be the scan's, and the index must equal a rebuild.
type indexRig struct {
	t       *testing.T
	m       dirIndexes
	buf     *cache.Buf
	oracle  []byte
	covered int // bytes of the block the directory's size covers
}

const rigDir Ino = 7

func newIndexRig(t *testing.T) *indexRig {
	r := &indexRig{t: t, m: make(dirIndexes), oracle: make([]byte, BlockSize),
		buf: &cache.Buf{Frag: 64, Data: make([]byte, BlockSize)}}
	r.grow()
	return r
}

// index returns the block's index, as lookupLocked and dirAddEntry get it.
func (r *indexRig) index() *dirIndex {
	return r.m.of(rigDir, r.buf, r.buf.Data[:r.covered])
}

// grow formats one more chunk, as a directory growing by a chunk does.
func (r *indexRig) grow() bool {
	if r.covered == BlockSize {
		return false
	}
	initDirChunks(r.oracle[r.covered : r.covered+DirChunk])
	initDirChunks(r.buf.Data[r.covered : r.covered+DirChunk])
	r.covered += DirChunk
	return true
}

func (r *indexRig) find(name string) Dirent {
	r.t.Helper()
	d, found, scanned := r.index().find(r.buf.Data[:r.covered], name)
	wd, wfound, wscanned := findEntry(r.oracle[:r.covered], name)
	if d != wd || found != wfound || scanned != wscanned {
		r.t.Fatalf("find %q = %+v %v %d, the scan %+v %v %d", name, d, found, scanned, wd, wfound, wscanned)
	}
	return d
}

// add stores name, growing the block when its covered chunks are full; it
// reports false when the whole block is.
func (r *indexRig) add(name string, ino Ino) bool {
	r.t.Helper()
	for {
		off, ok := r.index().add(r.buf.Data[:r.covered], name, ino, FtypeFile)
		woff, wok := addEntryInData(r.oracle[:r.covered], name, ino, FtypeFile)
		if off != woff || ok != wok {
			r.t.Fatalf("add %q = %d %v, the scan %d %v", name, off, ok, woff, wok)
		}
		if ok {
			return true
		}
		if !r.grow() {
			return false
		}
	}
}

func (r *indexRig) remove(off int) {
	r.m.remove(rigDir, r.buf, off)
	removeEntryInData(r.oracle, off)
}

func (r *indexRig) retarget(off int, ino Ino) {
	setPtr(r.buf.Data, off, int32(ino))
	setPtr(r.oracle, off, int32(ino))
}

// check compares the bytes, and the index with a rebuild.
func (r *indexRig) check(step string) {
	r.t.Helper()
	if !bytes.Equal(r.buf.Data, r.oracle) {
		r.t.Fatalf("%s: the block's bytes differ from the scan's", step)
	}
	if d := indexDrift(r.index()); d != "" {
		r.t.Fatalf("%s: %s", step, d)
	}
}

func TestDirIndexMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newIndexRig(t)
			var live []string
			for step := 0; step < 4000; step++ {
				label := fmt.Sprint("step ", step)
				switch op := rng.Intn(20); {
				case op < 8:
					// Short and long names, unique among the live ones.
					name := strconv.Itoa(step)
					if rng.Intn(3) == 0 {
						name = strings.Repeat("L", 40+rng.Intn(160)) + name
					}
					if r.add(name, Ino(3+rng.Intn(1000))) {
						live = append(live, name)
					}
				case op < 12 && len(live) > 0:
					i := rng.Intn(len(live))
					r.remove(r.find(live[i]).Off)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case op < 13 && len(live) > 0:
					r.retarget(r.find(live[rng.Intn(len(live))]).Off, Ino(3+rng.Intn(1000)))
				case op < 14:
					// The block evicted and read back: another buffer, the
					// same bytes, so the index is rebuilt.
					r.buf = &cache.Buf{Frag: r.buf.Frag, Data: bytes.Clone(r.buf.Data)}
				case op < 15:
					// growBlock moves the block: the index goes along.
					nb := &cache.Buf{Frag: r.buf.Frag + BlockFrags, Data: bytes.Clone(r.buf.Data)}
					r.index()
					r.m.moved(rigDir, r.buf, nb)
					r.buf = nb
					if len(r.m) != 1 || r.m[dirKey{rigDir, nb.Frag}].buf != nb {
						t.Fatalf("%s: the moved block's index was not carried to its new address", label)
					}
				case len(live) > 0 && rng.Intn(2) == 0:
					r.find(live[rng.Intn(len(live))])
				default:
					r.find("absent" + strconv.Itoa(rng.Intn(50)))
				}
				r.check(label)
			}
			for _, name := range live {
				if r.find(name).Ino == 0 {
					t.Fatalf("live name %q not found", name)
				}
			}
		})
	}

	t.Run("duplicate-name", func(t *testing.T) {
		// Two live entries with one name: the first in walk order answers,
		// as the scan's does. The block is answered by the scans until the
		// duplicate goes.
		r := newIndexRig(t)
		for i := 0; i < 30; i++ {
			r.add(fmt.Sprint("f", i), Ino(10+i))
		}
		r.add("twin", 100)
		r.remove(r.find("f3").Off) // a hole ahead of the first copy
		r.add("twin", 101)
		r.check("planting the duplicate")
		if !r.index().scan {
			t.Fatal("a block with a duplicate name is not answered by the scans")
		}
		first := r.find("twin")
		if first.Ino != 101 {
			t.Fatalf("the copy stored second does not come first in walk order: %+v", first)
		}
		r.remove(first.Off)
		r.check("removing the first copy")
		if r.index().scan {
			t.Fatal("the block is still answered by the scans after the duplicate went")
		}
		if second := r.find("twin"); second.Ino == first.Ino {
			t.Fatalf("the removed copy of the name still answers: %+v", second)
		}
	})

	t.Run("hash-collision", func(t *testing.T) {
		// Two names with one nameHash, found by trying "c0", "c1", ...
		a, b := "c693596", "c1170850"
		if nameHash(a) != nameHash(b) {
			t.Fatalf("%q and %q no longer share a hash", a, b)
		}
		r := newIndexRig(t)
		r.add(a, 20)
		r.add(b, 21)
		r.check("planting two names with one hash")
		if !r.index().scan {
			t.Fatalf("%q and %q share a hash but the block is not answered by the scans", a, b)
		}
		r.find(a)
		r.remove(r.find(b).Off)
		r.check("removing one of them")
		if r.index().scan {
			t.Fatal("the block is still answered by the scans after the collision went")
		}
		r.find(a)
		r.find(b)
	})

	t.Run("miss-allocates-nothing", func(t *testing.T) {
		r := newIndexRig(t)
		for i := 0; i < 300; i++ {
			r.add(fmt.Sprint("entry-", i), Ino(3+i))
		}
		data := r.buf.Data[:r.covered]
		x := r.index()
		if allocs := testing.AllocsPerRun(100, func() { x.find(data, "not-in-this-directory") }); allocs != 0 {
			t.Fatalf("a lookup miss allocates %.1f times", allocs)
		}
	})
}
