package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestStreamsPure: At is a pure function of the index for every built-in
// stream — out-of-order and repeated calls reproduce the sequence.
func TestStreamsPure(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = s.At(int64(i))
		}
		for _, i := range []int64{n - 1, 0, 1234, 1234, 7} {
			if got := s.At(i); !reflect.DeepEqual(got, ops[i]) {
				t.Errorf("%s: At(%d) = %+v out of order, want %+v", name, i, got, ops[i])
			}
		}
	}
}

// applySequential interprets ops in order against a per-directory name
// set, returning the first inconsistency (reference to a missing file,
// create over an existing one, out-of-range directory).
func applySequential(s Stream, n int) error {
	dirs := make([]map[string]bool, s.NDirs())
	for d := range dirs {
		dirs[d] = make(map[string]bool)
	}
	check := func(i int, d int, name string) error {
		if d < 0 || d >= len(dirs) {
			return fmt.Errorf("op %d: dir %d out of range [0,%d)", i, d, len(dirs))
		}
		if !dirs[d][name] {
			return fmt.Errorf("op %d: %q missing from dir %d", i, name, d)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		op := s.At(int64(i))
		switch op.Kind {
		case KCreate:
			if op.Dir < 0 || op.Dir >= len(dirs) {
				return fmt.Errorf("op %d: dir %d out of range", i, op.Dir)
			}
			if dirs[op.Dir][op.Name] {
				return fmt.Errorf("op %d: create over existing %q in dir %d", i, op.Name, op.Dir)
			}
			dirs[op.Dir][op.Name] = true
		case KRename:
			if err := check(i, op.Dir, op.Name); err != nil {
				return err
			}
			delete(dirs[op.Dir], op.Name)
			dirs[op.Dir2][op.Name2] = true
		case KUnlink:
			if err := check(i, op.Dir, op.Name); err != nil {
				return err
			}
			delete(dirs[op.Dir], op.Name)
		case KLookup, KRead, KFsync:
			if err := check(i, op.Dir, op.Name); err != nil {
				return err
			}
		default:
			return fmt.Errorf("op %d: unknown kind %v", i, op.Kind)
		}
	}
	return nil
}

// TestStreamsSelfConsistent: executed sequentially, every built-in
// stream's operations only reference files that exist — including well
// past the retention-window wrap, so removals and reuse stay coherent.
func TestStreamsSelfConsistent(t *testing.T) {
	lens := map[string]int{
		"mail":     5 * (mailWindow + 200),
		"build":    5 * (buildWindow + 200),
		"webcache": 3 * (webWindow + 200),
	}
	for _, name := range Names() {
		s, err := New(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := applySequential(s, lens[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestStreamBoundedLiveSet: the retention windows keep the live file
// count — and with it inode demand — bounded, so long runs fit small
// file systems.
func TestStreamBoundedLiveSet(t *testing.T) {
	s, _ := New("mail", 7)
	dirs := make([]map[string]bool, s.NDirs())
	for d := range dirs {
		dirs[d] = make(map[string]bool)
	}
	for i := 0; i < 5*(mailWindow*4); i++ {
		op := s.At(int64(i))
		switch op.Kind {
		case KCreate:
			dirs[op.Dir][op.Name] = true
		case KRename:
			delete(dirs[op.Dir], op.Name)
			dirs[op.Dir2][op.Name2] = true
		case KUnlink:
			delete(dirs[op.Dir], op.Name)
		}
	}
	live := 0
	for _, d := range dirs {
		live += len(d)
	}
	if live > mailWindow+mailDirs {
		t.Errorf("mail live set %d exceeds window bound %d", live, mailWindow+mailDirs)
	}
}

// TestNewUnknownScenario: the factory names the valid choices.
func TestNewUnknownScenario(t *testing.T) {
	_, err := New("nfs", 1)
	if err == nil || !strings.Contains(err.Error(), "mail") {
		t.Errorf("New(nfs) err = %v, want unknown-scenario error listing choices", err)
	}
}

// TestKindStrings: every kind has its own name, and a value outside the
// table still prints.
func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		if s := k.String(); s == "" || seen[s] {
			t.Errorf("Kind(%d).String() = %q: empty or taken", k, s)
		} else {
			seen[s] = true
		}
	}
	if got := Kind(17).String(); got != "Kind(17)" {
		t.Errorf("Kind(17).String() = %q", got)
	}
}
