package harness

import (
	"reflect"
	"testing"

	"metaupdate/internal/sim"
)

// mean must tolerate an empty sample set: RunUsers with zero users (or a
// future workload that records no per-user times) hands it an empty slice,
// and a divide-by-zero panic here would take down a whole exhibit.
func TestMeanEmptySlice(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Fatalf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]sim.Duration{}); got != 0 {
		t.Fatalf("mean(empty) = %v, want 0", got)
	}
	if got := mean([]sim.Duration{2 * sim.Second, 4 * sim.Second}); got != 3*sim.Second {
		t.Fatalf("mean(2s,4s) = %v, want 3s", got)
	}
}

// Fingerprints must separate every cell parameter that changes simulation
// results; a collision would silently serve one configuration's numbers as
// another's.
func TestFingerprintsDistinct(t *testing.T) {
	cells := []Cell{
		{Kind: CellCopy, Users: 4, Scale: 0.1},
		{Kind: CellCopy, Users: 4, Scale: 0.1, Remove: true},
		{Kind: CellCopy, Users: 1, Scale: 0.1},
		{Kind: CellCopy, Users: 4, Scale: 0.2},
		{Kind: CellFig5, Users: 4, TotalFiles: 100},
		{Kind: CellFig5, Users: 4, TotalFiles: 100, Fig5: Fig5Removes},
		{Kind: CellSdet, Users: 4, Commands: 10},
		{Kind: CellAndrew},
	}
	seen := make(map[string]int)
	for i, c := range cells {
		fp := c.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("cells %d and %d share fingerprint %q", i, j, fp)
		}
		seen[fp] = i
	}
	a := Cell{Kind: CellCopy, Users: 4, Scale: 0.1}
	if a.Fingerprint() != (Cell{Kind: CellCopy, Users: 4, Scale: 0.1}).Fingerprint() {
		t.Fatal("equal cells produced different fingerprints")
	}
	t.Run("every field", fingerprintCoversEveryField)
}

// fingerprintCoversEveryField perturbs each field of Cell and
// fsim.Options in turn — nested structs down to their leaves — and requires
// a new fingerprint every time: a field left out of the key would make two
// different simulations share a memo entry silently.
func fingerprintCoversEveryField(t *testing.T) {
	base := func() *Cell { return &Cell{} }
	want := base().Fingerprint()
	// walk visits every leaf under v; at finds the same leaf in a fresh
	// base cell, where it is perturbed.
	leaves := 0
	var walk func(path string, v reflect.Value, at func(*Cell) reflect.Value)
	walk = func(path string, v reflect.Value, at func(*Cell) reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i),
					func(c *Cell) reflect.Value { return at(c).Field(i) })
			}
			return
		}
		leaves++
		c := base()
		switch f := at(c); {
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.CanInt():
			f.SetInt(f.Int() + 1)
		case f.CanUint():
			f.SetUint(f.Uint() + 1)
		case f.CanFloat():
			f.SetFloat(f.Float() + 1)
		case f.Kind() == reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("%s: no perturbation for kind %s", path, f.Kind())
		}
		if c.Fingerprint() == want {
			t.Errorf("perturbing %s left the fingerprint unchanged", path)
		}
	}
	walk("Cell", reflect.ValueOf(base()).Elem(), func(c *Cell) reflect.Value { return reflect.ValueOf(c).Elem() })
	if leaves < 43 {
		t.Fatalf("walked only %d leaves; Cell and fsim.Options have more", leaves)
	}
}
