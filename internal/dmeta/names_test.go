package dmeta

import (
	"testing"

	"metaupdate/internal/ffs"
)

// TestBackingNamesRoundTrip: every name a formatter writes parses back to
// its kind and id, and nothing near the grammar but outside it parses.
func TestBackingNamesRoundTrip(t *testing.T) {
	const file, dir = ffs.FtypeFile, ffs.FtypeDir
	for _, id := range []uint64{0, 1, 9, 10, 0xabc, 1 << 40, 1<<64 - 1} {
		for _, c := range []struct {
			parent Kind
			name   string
			ftype  uint8
			want   Kind
		}{
			{KindInoDir, inoName(id), file, KindInoFile},
			{KindInoDir, linkName(id, 2), file, KindLinkFile},
			{KindInoDir, linkName(id, 17), file, KindLinkFile},
			{KindDentDir, parentDirName(id), dir, KindParentDir},
			{KindParentDir, dentName("mbox.lock", id), file, KindDentry},
			{KindParentDir, dentName("x1f.l2", id), file, KindDentry},
		} {
			if kind, got := ParseBackingName(c.parent, c.name, c.ftype); kind != c.want || got != id {
				t.Errorf("%q under kind %d parses to kind %d id %#x, want kind %d id %#x",
					c.name, c.parent, kind, got, c.want, id)
			}
			// The same name is wrong with the other entry type and under
			// every other directory.
			if kind, _ := ParseBackingName(c.parent, c.name, file+dir-c.ftype); kind != KindBad {
				t.Errorf("%q parses with the wrong entry type", c.name)
			}
			for parent := KindBad; parent <= KindDentry; parent++ {
				if kind, _ := ParseBackingName(parent, c.name, c.ftype); parent != c.parent && kind != KindBad {
					t.Errorf("%q parses to kind %d under kind %d", c.name, kind, parent)
				}
			}
		}
	}
	for _, c := range []struct {
		name  string
		ftype uint8
		want  Kind
	}{{inoDirName, dir, KindInoDir}, {dentDirName, dir, KindDentDir}, {inoDirName, file, KindBad}, {"lost+found", dir, KindBad}} {
		if kind, _ := ParseBackingName(KindRoot, c.name, c.ftype); kind != c.want {
			t.Errorf("root entry %q (ftype %d) parses to kind %d, want %d", c.name, c.ftype, kind, c.want)
		}
	}
	for _, c := range []struct {
		parent Kind
		name   string
		ftype  uint8
	}{
		{KindInoDir, "x", file}, {KindInoDir, "y1f", file}, {KindInoDir, "x1F", file},
		{KindInoDir, "x01f", file}, {KindInoDir, "x+1f", file}, {KindInoDir, "x10000000000000000", file},
		{KindInoDir, "x1f.l1", file}, {KindInoDir, "x1f.l02", file}, {KindInoDir, "x1f.l", file},
		{KindInoDir, "x1f.m2", file}, {KindInoDir, "x1f", 0},
		{KindDentDir, "p", dir}, {KindDentDir, "p0x1f", dir}, {KindDentDir, "q1f", dir},
		{KindParentDir, "=1f", file}, {KindParentDir, "a=b=1f", file}, {KindParentDir, "a=", file},
		{KindParentDir, "a", file}, {KindParentDir, "a=1G", file},
	} {
		if kind, id := ParseBackingName(c.parent, c.name, c.ftype); kind != KindBad || id != 0 {
			t.Errorf("%q under kind %d parses to kind %d id %#x, want KindBad", c.name, c.parent, kind, id)
		}
	}
}
