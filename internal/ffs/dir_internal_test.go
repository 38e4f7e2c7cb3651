package ffs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntrySpaceAlignment(t *testing.T) {
	for namelen := 1; namelen <= 60; namelen++ {
		s := entrySpace(namelen)
		if s%4 != 0 {
			t.Fatalf("entrySpace(%d) = %d not 4-aligned", namelen, s)
		}
		if s < direntHdr+namelen {
			t.Fatalf("entrySpace(%d) = %d too small", namelen, s)
		}
	}
}

func TestInitDirChunksProducesEmptyChunks(t *testing.T) {
	b := make([]byte, 2*DirChunk)
	initDirChunks(b)
	for chunk := 0; chunk < len(b); chunk += DirChunk {
		d := readDirent(b, chunk, string(entryName(b, chunk)))
		if d.Ino != 0 || d.Reclen != DirChunk {
			t.Fatalf("chunk %d: %+v", chunk, d)
		}
	}
	if got := listEntries(b); len(got) != 0 {
		t.Fatalf("fresh chunks list %d entries", len(got))
	}
}

func TestAddFindRemoveEntry(t *testing.T) {
	b := make([]byte, DirChunk)
	initDirChunks(b)
	off1, ok := addEntryInData(b, "alpha", 10, FtypeFile)
	if !ok {
		t.Fatal("add alpha failed")
	}
	off2, ok := addEntryInData(b, "beta", 11, FtypeDir)
	if !ok {
		t.Fatal("add beta failed")
	}
	if off1 == off2 {
		t.Fatal("entries share an offset")
	}
	d, found, _ := findEntry(b, "alpha")
	if !found || d.Ino != 10 || d.Ftype != FtypeFile {
		t.Fatalf("findEntry alpha = %+v %v", d, found)
	}
	removeEntryInData(b, off1)
	if _, found, _ := findEntry(b, "alpha"); found {
		t.Fatal("alpha survived removal")
	}
	if d, found, _ := findEntry(b, "beta"); !found || d.Ino != 11 {
		t.Fatal("beta damaged by alpha's removal")
	}
}

func TestRemoveFirstEntryOfChunk(t *testing.T) {
	b := make([]byte, DirChunk)
	initDirChunks(b)
	off, _ := addEntryInData(b, "first", 5, FtypeFile)
	if off != 0 {
		t.Fatalf("first entry at %d", off)
	}
	removeEntryInData(b, off)
	// The chunk head becomes a free entry owning its space; adding reuses it.
	off2, ok := addEntryInData(b, "reuse", 6, FtypeFile)
	if !ok || off2 != 0 {
		t.Fatalf("free chunk head not reused: off=%d ok=%v", off2, ok)
	}
}

func TestCoalescingReclaimsSpace(t *testing.T) {
	b := make([]byte, DirChunk)
	initDirChunks(b)
	var offs []int
	names := []string{"a1", "b2", "c3", "d4"}
	for i, n := range names {
		off, ok := addEntryInData(b, n, Ino(20+i), FtypeFile)
		if !ok {
			t.Fatal("add failed")
		}
		offs = append(offs, off)
	}
	// Remove the middle two; their space coalesces into predecessors.
	removeEntryInData(b, offs[1])
	removeEntryInData(b, offs[2])
	live := listEntries(b)
	if len(live) != 2 {
		t.Fatalf("%d live entries, want 2", len(live))
	}
	// A long name should now fit in the coalesced space.
	if _, ok := addEntryInData(b, "a-much-longer-name-needing-room", 99, FtypeFile); !ok {
		t.Fatal("coalesced space not reusable")
	}
}

func TestEntriesNeverCrossChunkBoundary(t *testing.T) {
	// Fill two chunks with entries and verify every entry lies within one
	// 512-byte chunk (the sector-atomicity invariant).
	b := make([]byte, 2*DirChunk)
	initDirChunks(b)
	i := 0
	for {
		name := "entryname" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if _, ok := addEntryInData(b, name, Ino(100+i), FtypeFile); !ok {
			break
		}
		i++
	}
	if i < 20 {
		t.Fatalf("only %d entries fit in two chunks", i)
	}
	for _, d := range listEntries(b) {
		start := d.Off / DirChunk
		end := (d.Off + entrySpace(len(d.Name)) - 1) / DirChunk
		if start != end {
			t.Fatalf("entry %q spans chunks (off %d)", d.Name, d.Off)
		}
	}
}

// Property: any sequence of adds/removes keeps the chunk structurally
// valid: reclens positive, 4-aligned, chunk-tiling, and live entries
// consistent with a shadow map.
func TestDirOpsStructuralInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, DirChunk)
		initDirChunks(b)
		shadow := map[string]Ino{}
		for step := 0; step < 200; step++ {
			name := "n" + string(rune('a'+rng.Intn(8)))
			if _, exists := shadow[name]; !exists && rng.Intn(2) == 0 {
				if _, ok := addEntryInData(b, name, Ino(rng.Intn(1000)+2), FtypeFile); ok {
					d, found, _ := findEntry(b, name)
					if !found {
						return false
					}
					shadow[name] = d.Ino
				}
			} else if exists {
				d, found, _ := findEntry(b, name)
				if !found || d.Ino != shadow[name] {
					return false
				}
				removeEntryInData(b, d.Off)
				delete(shadow, name)
			}
			// Structural check: entries tile each chunk exactly.
			off, seen := 0, 0
			for off < DirChunk {
				d := readDirent(b, off, string(entryName(b, off)))
				if d.Reclen <= 0 || d.Reclen%4 != 0 || off+d.Reclen > DirChunk {
					return false
				}
				if d.Ino != 0 {
					seen++
				}
				off += d.Reclen
			}
			if off != DirChunk || seen != len(shadow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInodeCodecRoundTrip(t *testing.T) {
	ip := Inode{
		Mode: ModeFile, Nlink: 3, Size: 1234567,
		Indir: 4242, Dindir: 777, Gen: 9,
	}
	for i := range ip.Direct {
		ip.Direct[i] = int32(1000 + i)
	}
	b := make([]byte, InodeSize)
	ip.encode(b)
	var got Inode
	got.decode(b)
	if got != ip {
		t.Fatalf("round trip: %+v != %+v", got, ip)
	}
}

func TestInodeCodecQuick(t *testing.T) {
	f := func(mode, nlink uint16, size uint64, indir, dindir int32, gen uint32) bool {
		ip := Inode{Mode: mode, Nlink: nlink, Size: size, Indir: indir, Dindir: dindir, Gen: gen}
		b := make([]byte, InodeSize)
		ip.encode(b)
		var got Inode
		got.decode(b)
		return got == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLastBlockFrags(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{
		{0, 0}, {1, 1}, {1024, 1}, {1025, 2}, {8191, 8}, {8192, 8},
		{8193, 1}, {16384, 8}, {20000, 4},
	}
	for _, c := range cases {
		if got := lastBlockFrags(c.size); got != c.want {
			t.Errorf("lastBlockFrags(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestBlocksOf(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{{0, 0}, {1, 1}, {8192, 1}, {8193, 2}, {81920, 10}}
	for _, c := range cases {
		if got := blocksOf(c.size); got != c.want {
			t.Errorf("blocksOf(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSuperblockCodec(t *testing.T) {
	sb := Superblock{Magic: Magic, TotalFrags: 98304, NInodes: 16384,
		InodeStart: 8, IBmapStart: 2056, FBmapStart: 2058, DataStart: 2072}
	b := make([]byte, FragSize)
	sb.encode(b)
	var got Superblock
	if err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("%+v != %+v", got, sb)
	}
	b[0] = 0xFF
	if err := got.Decode(b); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestInodeFragMapping(t *testing.T) {
	sb := Superblock{InodeStart: 8, NInodes: 1024}
	frag, off := sb.InodeFrag(0)
	if frag != 8 || off != 0 {
		t.Fatalf("inode 0 at frag %d off %d", frag, off)
	}
	frag, off = sb.InodeFrag(63)
	if frag != 8 || off != 63*InodeSize {
		t.Fatalf("inode 63 at frag %d off %d", frag, off)
	}
	frag, off = sb.InodeFrag(64)
	if frag != 8+BlockFrags || off != 0 {
		t.Fatalf("inode 64 at frag %d off %d", frag, off)
	}
}
