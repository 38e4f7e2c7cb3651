package sim

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives a table and a map with the same random writes
// and checks every read, the pages made and the iteration against the map.
func TestTableMatchesMap(t *testing.T) {
	const n = 20 * pageSize
	rng := rand.New(rand.NewSource(1))
	tab := NewTable[int](n)
	oracle := map[int64]int{}
	for step := 0; step < 5000; step++ {
		// Indexes cluster in a few pages, as fragments and inodes do.
		i := int64(rng.Intn(4))*5*pageSize + int64(rng.Intn(pageSize))
		if i >= n {
			i = n - 1
		}
		if rng.Intn(3) == 0 {
			*tab.At(i) = 0
			delete(oracle, i)
		} else {
			v := rng.Intn(1000) + 1
			*tab.At(i) = v
			oracle[i] = v
		}
		j := int64(rng.Intn(n))
		if got, want := tab.Get(j), oracle[j]; got != want {
			t.Fatalf("step %d: Get(%d) = %d, want %d", step, j, got, want)
		}
	}
	pages := 0
	for _, pg := range tab.pages {
		if pg != nil {
			pages++
		}
	}
	if pages > 4 {
		t.Errorf("%d pages made for writes in 4", pages)
	}
	seen, last := 0, int64(-1)
	for i, v := range tab.All() {
		if i <= last {
			t.Fatalf("All out of order: %d after %d", i, last)
		}
		last = i
		if *v != oracle[i] {
			t.Fatalf("All: entry %d = %d, want %d", i, *v, oracle[i])
		}
		if *v != 0 {
			seen++
		}
	}
	if seen != len(oracle) {
		t.Errorf("All yielded %d written entries, want %d", seen, len(oracle))
	}
}

// TestTableEntriesStayPut: an entry's address survives later pages being
// made, so a table can hold values that are referred to by pointer.
func TestTableEntriesStayPut(t *testing.T) {
	tab := NewTable[int64](8 * pageSize)
	p := tab.At(3)
	*p = 7
	for i := int64(pageSize); i < 8*pageSize; i += pageSize {
		*tab.At(i) = i
	}
	if tab.At(3) != p || tab.Get(3) != 7 {
		t.Fatal("entry moved when other pages were made")
	}
	if tab.Get(8*pageSize-1) != 0 {
		t.Fatal("unwritten entry is not zero")
	}
}

// TestTableRecyclesEmptiedPages: a page whose entries are all unused leaves
// the table and is the next page made, zero; a page emptied with an entry
// still set panics in a test binary.
func TestTableRecyclesEmptiedPages(t *testing.T) {
	tab := NewTable[*int](4 * pageSize)
	x := 1
	*tab.At(5) = &x
	tab.Use(5)
	*tab.At(7) = &x
	tab.Use(7)
	pg := tab.pages[0]
	*tab.At(5) = nil
	tab.Unuse(5)
	if tab.pages[0] != pg || tab.Get(7) != &x {
		t.Fatal("a page with an entry in use left the table")
	}
	*tab.At(7) = nil
	tab.Unuse(7)
	if tab.pages[0] != nil || tab.spare != pg {
		t.Fatal("an emptied page stayed in the table")
	}
	if tab.At(3*pageSize + 1); tab.pages[3] != pg {
		t.Fatal("the next page made is not the emptied one")
	}
	for i, e := range tab.All() {
		if *e != nil {
			t.Fatalf("recycled page holds entry %d", i)
		}
	}
	*tab.At(3*pageSize + 2) = &x
	tab.Use(3*pageSize + 2)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a page emptied with an entry still set did not panic")
		}
	}()
	tab.Unuse(3*pageSize + 2)
}
