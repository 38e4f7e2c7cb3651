package sim

import (
	"iter"
	"testing"
	"unsafe"
)

// A Table page holds 64 entries: small enough that a machine that touches
// a few scattered entries pays little, large enough that a workload's pages
// once made hold what it touches next (DESIGN.md §9).
const (
	pageShift = 6
	pageSize  = 1 << pageShift
)

// Table is the dense index the event path uses where a hash map would cost
// a hash per lookup: the cache's buffers by fragment, the file system's
// per-inode state, the driver's sector buckets. It maps the indexes [0, n)
// to values of T with two array indexings. An entry never written reads as
// T's zero value.
//
// Pages of 64 entries are made on first write, so a machine that touches a
// few fragments of a large disk pays for a few pages, not for the disk
// (DESIGN.md §9). An owner that counts its entries in use (Use, Unuse) also
// gets emptied pages back: a page with no entry in use leaves the table and
// becomes the next page made, so the pages a workload holds follow what it
// holds, not every place it ever touched. While its page is in the table
// an entry stays at the same address.
type Table[T any] struct {
	pages []*tablePage[T]
	spare *tablePage[T] // emptied pages, every entry zero, LIFO through next
}

type tablePage[T any] struct {
	e    [pageSize]T
	used int           // entries in use, as counted by Use and Unuse
	next *tablePage[T] // the next spare page, while this one is spare
}

// NewTable returns a table for the indexes [0, n). Only the page directory is
// allocated: n/64 pointers.
func NewTable[T any](n int64) Table[T] {
	return Table[T]{pages: make([]*tablePage[T], (n+pageSize-1)>>pageShift)}
}

// Get returns the entry at i, or T's zero value if its page does not exist.
func (t *Table[T]) Get(i int64) T {
	if pg := t.pages[i>>pageShift]; pg != nil {
		return pg.e[i&(pageSize-1)]
	}
	var zero T
	return zero
}

// At returns the address of the entry at i, making its page if needed.
func (t *Table[T]) At(i int64) *T {
	pg := t.pages[i>>pageShift]
	if pg == nil {
		if pg = t.spare; pg != nil {
			t.spare, pg.next = pg.next, nil
		} else {
			pg = new(tablePage[T])
		}
		t.pages[i>>pageShift] = pg
	}
	return &pg.e[i&(pageSize-1)]
}

// Use counts the entry at i, whose page exists (At), as in use.
func (t *Table[T]) Use(i int64) { t.pages[i>>pageShift].used++ }

// Unuse ends one Use of the entry at i. The owner has set every entry it no
// longer counts back to T's zero value, so a page left with no entry in use
// is all zero: it leaves the table, to be the next page At makes. Test
// binaries check that it is.
func (t *Table[T]) Unuse(i int64) {
	pg := t.pages[i>>pageShift]
	if pg.used--; pg.used > 0 {
		return
	}
	if zeroCheck {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&pg.e)), unsafe.Sizeof(pg.e))
		for _, x := range b {
			if x != 0 {
				panic("sim: Table page emptied with an entry not reset to zero")
			}
		}
	}
	t.pages[i>>pageShift] = nil
	t.spare, pg.next = pg, t.spare
}

// zeroCheck turns on Unuse's all-zero check in test binaries.
var zeroCheck = testing.Testing()

// All yields the index and address of every entry whose page exists, in
// ascending index order; entries never written are among them.
func (t *Table[T]) All() iter.Seq2[int64, *T] {
	return func(yield func(int64, *T) bool) {
		for p, pg := range t.pages {
			if pg == nil {
				continue
			}
			for i := range pg.e {
				if !yield(int64(p)<<pageShift+int64(i), &pg.e[i]) {
					return
				}
			}
		}
	}
}
