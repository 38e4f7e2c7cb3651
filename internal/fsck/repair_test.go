package fsck_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// After Repair, a crashed image must pass Check with zero findings — for
// every scheme, safe or not, at any crash point. This is the paper's
// recovery story: fsck assistance restores a usable file system; the
// difference between the schemes is only whether *integrity* (and data)
// survived until fsck ran.
func TestRepairProducesCleanImage(t *testing.T) {
	for _, scheme := range []string{"conventional", "flag", "chains", "softupdates", "noorder"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			total := totalRuntime(t, scheme, true)
			for pct := 10; pct <= 90; pct += 20 {
				at := total * sim.Time(pct) / 100
				img := crashAt(t, scheme, true, at)
				fsck.Repair(img)
				rep := fsck.Check(img)
				if len(rep.Findings) != 0 {
					t.Fatalf("%s at %d%%: repaired image still has findings: %v",
						scheme, pct, rep.Findings[0])
				}
			}
		})
	}
}

func TestRepairReportsActions(t *testing.T) {
	// A crashed No Order image mid-churn needs actual repairs.
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	before := fsck.Check(img)
	actions := fsck.Repair(img)
	if len(before.Findings) > 0 && len(actions) == 0 {
		t.Fatalf("fsck found %d problems but Repair did nothing", len(before.Findings))
	}
}

func TestRepairClampsLinkCounts(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	// Inflate some link count.
	var victim ffs.Ino
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.Mode == ffs.ModeFile {
			victim = ino
			ip.Nlink = 9
			ffs.EncodeInode(&ip, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	if victim == 0 {
		t.Skip("no file inode")
	}
	fsck.Repair(img)
	frag, off := sb.InodeFrag(victim)
	ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
	if ip.Nlink == 9 {
		t.Fatal("link count not clamped")
	}
	if v := fsck.Check(img).Violations(); len(v) != 0 {
		t.Fatalf("still violating after repair: %v", v)
	}
}

func TestRepairClearsDanglingEntries(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	// Clear a referenced inode to manufacture a dangling entry.
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.Mode == ffs.ModeFile {
			cleared := ffs.Inode{}
			ffs.EncodeInode(&cleared, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	if len(fsck.Check(img).Violations()) == 0 {
		t.Skip("no dangling entry was produced")
	}
	fsck.Repair(img)
	if v := fsck.Check(img).Violations(); len(v) != 0 {
		t.Fatalf("dangling entry survived repair: %v", v)
	}
}

// TestRepairFreesOrphanInodes manufactures an allocated inode no directory
// references — the shape a crash leaves when the inode write beat the
// directory entry to disk and the entry never made it.
func TestRepairFreesOrphanInodes(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	var orphan ffs.Ino
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		if ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):]); !ip.Allocated() {
			orphan = ino
			ip = ffs.Inode{Mode: ffs.ModeFile, Nlink: 1}
			ffs.EncodeInode(&ip, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	if orphan == 0 {
		t.Skip("no free inode to orphan")
	}
	actions := fsck.Repair(img)
	frag, off := sb.InodeFrag(orphan)
	if ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):]); ip.Allocated() {
		t.Fatalf("orphan inode %d still allocated after repair", orphan)
	}
	if !strings.Contains(strings.Join(actions, "\n"), "orphan") {
		t.Errorf("repair log doesn't mention the orphan: %v", actions)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairReclaimsLeaks marks a free fragment and a free inode as
// allocated in the bitmaps — leaked space, the benign inconsistency every
// scheme in the paper tolerates — and wants both bits reclaimed by the
// bitmap rebuild.
func TestRepairReclaimsLeaks(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	fbm := img[int64(sb.FBmapStart)*ffs.FragSize:]
	var leakedFrag int32 = -1
	for f := sb.TotalFrags - 1; f >= sb.DataStart; f-- {
		if fbm[f/8]&(1<<(uint(f)%8)) == 0 {
			fbm[f/8] |= 1 << (uint(f) % 8)
			leakedFrag = f
			break
		}
	}
	ibm := img[int64(sb.IBmapStart)*ffs.FragSize:]
	var leakedIno ffs.Ino
	for ino := ffs.Ino(sb.NInodes - 1); ino > ffs.RootIno; ino-- {
		if ibm[ino/8]&(1<<(uint(ino)%8)) == 0 {
			ibm[ino/8] |= 1 << (uint(ino) % 8)
			leakedIno = ino
			break
		}
	}
	if leakedFrag < 0 || leakedIno == 0 {
		t.Skip("nothing free to leak")
	}
	fsck.Repair(img)
	if fbm[leakedFrag/8]&(1<<(uint(leakedFrag)%8)) != 0 {
		t.Errorf("leaked fragment %d not reclaimed", leakedFrag)
	}
	if ibm[leakedIno/8]&(1<<(uint(leakedIno)%8)) != 0 {
		t.Errorf("leaked inode %d not reclaimed", leakedIno)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairReformatsGarbageDirChunk scribbles over a directory's first
// chunk — what a torn multi-sector directory write leaves behind — and
// wants the chunk reformatted with "." and ".." reseeded.
func TestRepairReformatsGarbageDirChunk(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	var dir ffs.Ino
	var head []byte
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.IsDir() && ip.Direct[0] >= sb.DataStart && ip.Direct[0] < sb.TotalFrags {
			dir = ino
			head = img[int64(ip.Direct[0])*ffs.FragSize:]
			break
		}
	}
	if dir == 0 {
		t.Skip("no non-root directory")
	}
	for i := 0; i < ffs.DirChunk; i++ {
		head[i] = 0xAB // invalid reclen everywhere
	}
	fsck.Repair(img)
	le := binary.LittleEndian
	if got := ffs.Ino(le.Uint32(head[0:])); got != dir {
		t.Errorf("reformatted chunk's '.' names inode %d, want %d", got, dir)
	}
	if name := string(head[8 : 8+head[6]]); name != "." {
		t.Errorf("first reseeded entry is %q, want %q", name, ".")
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairIdempotent: repairing a repaired image must be a no-op — the
// clean re-check above is only trustworthy if Repair converges.
func TestRepairIdempotent(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	fsck.Repair(img)
	if again := fsck.Repair(img); len(again) != 0 {
		t.Fatalf("second repair still acted: %v", again)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

func TestRepairTruncatesBadPointers(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.Mode == ffs.ModeFile && ip.Size > ffs.BlockSize {
			ip.Direct[1] = sb.TotalFrags + 100 // out of range
			ffs.EncodeInode(&ip, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	fsck.Repair(img)
	if v := fsck.Check(img).Violations(); len(v) != 0 {
		t.Fatalf("bad pointer survived repair: %v", v)
	}
}

// TestRepairTruncatesMissingDindir: a size that reaches past the single
// indirect block with no double-indirect block set is a short file to Check
// (as a missing indirect block is), so Repair ends the file where the map
// does. The file is fabricated on free blocks of a finished image: twelve
// direct blocks and a full indirect block, then one block more of size.
func TestRepairTruncatesMissingDindir(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	fsck.Repair(img)
	sb := superblockOf(t, img)
	fbm := img[int64(sb.FBmapStart)*ffs.FragSize:]
	const mapped = ffs.NDirect + ffs.PtrsPerBlock
	var free []int32 // block-aligned runs of BlockFrags free fragments
	start := (sb.DataStart + ffs.BlockFrags - 1) / ffs.BlockFrags * ffs.BlockFrags
	for f := start; f+ffs.BlockFrags <= sb.TotalFrags && len(free) < mapped+1; f += ffs.BlockFrags {
		if fbm[f/8] == 0 {
			free = append(free, f)
		}
	}
	if len(free) < mapped+1 {
		t.Fatalf("only %d free blocks, need %d", len(free), mapped+1)
	}
	var victim ffs.Ino
	var ioff int64
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes && victim == 0; ino++ {
		frag, off := sb.InodeFrag(ino)
		ioff = int64(frag)*ffs.FragSize + int64(off)
		if ip := ffs.DecodeInode(img[ioff:]); ip.Mode == ffs.ModeFile && ip.Nlink > 0 {
			victim = ino
		}
	}
	if victim == 0 {
		t.Fatal("no regular file in image")
	}
	ip := ffs.DecodeInode(img[ioff:])
	copy(ip.Direct[:], free[:ffs.NDirect])
	ip.Indir, ip.Dindir = free[mapped], 0
	for i, p := range free[ffs.NDirect:mapped] {
		binary.LittleEndian.PutUint32(img[int64(ip.Indir)*ffs.FragSize+int64(i)*4:], uint32(p))
	}
	ip.Size = (mapped + 1) * ffs.BlockSize
	ffs.EncodeInode(&ip, img[ioff:])

	short := false
	for _, f := range fsck.Check(img).Findings {
		short = short || f.Kind == fsck.ShortFile && f.Ino == victim
	}
	if !short {
		t.Fatalf("Check reports no ShortFile for inode %d", victim)
	}
	want := fmt.Sprintf("truncated inode %d to %d bytes (unverifiable block map)", victim, mapped*ffs.BlockSize)
	if acts := fsck.Repair(img); !slices.Contains(acts, want) {
		t.Fatalf("Repair did not truncate at the double-indirect boundary: %v", acts)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
	if acts := fsck.Repair(img); len(acts) != 0 {
		t.Fatalf("second Repair acted: %v", acts)
	}
}

// repairPins records what Repair did at the commit before it was rebuilt on
// the checker's records (PR 14): for the TestRepairProducesCleanImage corpus
// and the mid-crash No Order image, the SHA-256 of the repaired image and of
// the sorted action list joined by newlines. Repair's bytes were
// deterministic then (only the order of its actions was not), so the
// rebuild must reproduce every row.
var repairPins = []struct {
	scheme    string
	allocInit bool
	pct       int
	actions   int
	image     string
	actionSet string
}{
	{"conventional", true, 10, 13,
		"537d9c0ad2cfbe7e47dbf14bff4ecb3f347d346f1025d210ca5326c9b9c19252",
		"2ae806eb9dd871653a5ef4adb071a471f755f32b36a44708acadbd279bc57983"},
	{"conventional", true, 30, 15,
		"bde86ed955f7c7089905d5cf835f7e55ac97af35740748fa356f22cc5ee329f2",
		"9c776f8c1df72a58201c1579e13a8b3cb3ccefd8addc83c19d44464312f1a632"},
	{"conventional", true, 50, 15,
		"9d34af51ac162d0e82dad0989473c7d7784d3439af121cbe579cf89797540add",
		"badc2d195d1dd9004ef173075a9a73dea5afabfdba4eedc351844f342bdb0f6e"},
	{"conventional", true, 70, 11,
		"318019255f763f99e70690d26572c090e5863f3a61bdc64f65de6fe599355608",
		"9066ac488473f22d79e8807b3cf57187435d40fce9ca4e2e03cf4c31f61b8651"},
	{"conventional", true, 90, 0,
		"33961491d524141a5d6f41b6c567b68bd275a0bc998cffe05e1ecd263c787afb",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"flag", true, 10, 11,
		"08e8891f90280d3c0df1df8d594540e9378c567b2fd7c05601ae50c5ebea5854",
		"252ee66d2b485e4d92cdb4ac1d77361340c8c84f4813c5976634060c822bd213"},
	{"flag", true, 30, 6,
		"5e514bd3ecb9a93e7807a2deae2fd2f227cd5708768b48faf45d8eb59a8b7018",
		"c2507fd612b519883ed6e34a9d0f1287b30b4234ff41b589aa983c4bac14c61b"},
	{"flag", true, 50, 7,
		"120996f41bf3b8e986baad4e26a9cc888e59b38012d37ca8ff0b19d40770bf62",
		"385286dbd05da1b1328b4fcb799208d25af4c23079f01f5b1c2856aa87029568"},
	{"flag", true, 70, 19,
		"99b22ff74544c38c0203f6258ef9d9c05f0193815a3c9b4e70f021a9ee9ba16e",
		"b00b250966a317a5994bd4963085089f1ad0ab1a15a70e7ee764e5f986cba08f"},
	{"flag", true, 90, 7,
		"91b52173ae32c747467bda70832a4cfbeef05cc5838431cda0343f3c740cc946",
		"3bd2788b0a15df6af91482a8df7c1bb02a7dd3b8f1866ff61c7d02565afbf880"},
	{"chains", true, 10, 2,
		"ec65e5c355a9b7bc435a782f894b6ff17d50f7bd833c629b2306c2a259339ae0",
		"ab9b9f88e2de446c78d92ae567ce833cc28b1b37e06ddbfdbe11af785d97344f"},
	{"chains", true, 30, 2,
		"497767fe0ef10935a50b56f5deae0374dad475297c8b488948bef64fae03a6cf",
		"247b7382916e296fba60a617cb25483a410f1eee043cdacc0da2e08ec2ec1b4a"},
	{"chains", true, 50, 5,
		"fa1432eb81656efbb81385c38432a5bb8372dad1dae0956349bc2574b105c042",
		"8cb9912d65ca37d24ba360c9727d565a0e3c4c21be8295e117bc49753065d741"},
	{"chains", true, 70, 7,
		"09290350ec8516ea3faf4a8b3c12216060c6f41fe8fa6c32cab6aa30fd8c514f",
		"dc49441f12dcf58cb03ba457b2812a9899440b1294a4710c9e0ec99427512124"},
	{"chains", true, 90, 0,
		"33961491d524141a5d6f41b6c567b68bd275a0bc998cffe05e1ecd263c787afb",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"softupdates", true, 10, 0,
		"75bf1d2233f6aad403576d46b29f1e17da060a9fc8d7f0bc9c2305d8692d9765",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"softupdates", true, 30, 47,
		"24f1fe29c12d0c850609db5f662984bc456a6b95992477f2e2e1b8c2c7e9bab2",
		"ca95ffc9a4b03b24dfd86e68a639a626c14fcff368f5c4d0bc93f4728cc12dc1"},
	{"softupdates", true, 50, 47,
		"dd66564257c6be1e92935bbe543a2a07509d39d304ada743bc9f400f82ed1a59",
		"ca95ffc9a4b03b24dfd86e68a639a626c14fcff368f5c4d0bc93f4728cc12dc1"},
	{"softupdates", true, 70, 0,
		"f1c4ab83077e4926d9c68f8927d4741f9e42d745cb361dc3e9215bf79d6b9dce",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"softupdates", true, 90, 0,
		"f1c4ab83077e4926d9c68f8927d4741f9e42d745cb361dc3e9215bf79d6b9dce",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"noorder", true, 10, 0,
		"75bf1d2233f6aad403576d46b29f1e17da060a9fc8d7f0bc9c2305d8692d9765",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"noorder", true, 30, 37,
		"456cd28e7c4be3c9e78d379bd4999af39c11c3362e6ecb034756f2437c5adfdc",
		"e75bbbc2948aea5b7e6466b943c85fba063324cc69db1872263d6112253b8231"},
	{"noorder", true, 50, 16,
		"bcb7f6d6fbdfc7bab31df931024382d54063c437be45b810d2b4cdbfa522e86d",
		"15a5fb736ea82692bc785222e2a86611309262c2c1068e3854f67bccc773a2df"},
	{"noorder", true, 70, 0,
		"e9a987708049bc71ae935a78fe70e7ea4af07ac1d9941abb91eb4d99caaefa0e",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"noorder", true, 90, 0,
		"e9a987708049bc71ae935a78fe70e7ea4af07ac1d9941abb91eb4d99caaefa0e",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"noorder", false, 50, 16,
		"bcb7f6d6fbdfc7bab31df931024382d54063c437be45b810d2b4cdbfa522e86d",
		"15a5fb736ea82692bc785222e2a86611309262c2c1068e3854f67bccc773a2df"},
}

func TestRepairWritesPinnedBytes(t *testing.T) {
	totals := map[string]sim.Time{} // the uncrashed run's length, by scheme
	for _, pin := range repairPins {
		total, ok := totals[fmt.Sprint(pin.scheme, pin.allocInit)]
		if !ok {
			total = totalRuntime(t, pin.scheme, pin.allocInit)
			totals[fmt.Sprint(pin.scheme, pin.allocInit)] = total
		}
		img := crashAt(t, pin.scheme, pin.allocInit, total*sim.Time(pin.pct)/100)
		actions := fsck.Repair(img)
		slices.Sort(actions)
		label := fmt.Sprintf("%s (allocInit %v) at %d%%", pin.scheme, pin.allocInit, pin.pct)
		if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != pin.image {
			t.Errorf("%s: repaired image hashes to %s, pinned %s", label, got, pin.image)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(actions, "\n")))); got != pin.actionSet || len(actions) != pin.actions {
			t.Errorf("%s: %d actions hashing to %s, pinned %d hashing to %s:\n%s",
				label, len(actions), got, pin.actions, pin.actionSet, strings.Join(actions, "\n"))
		}
	}
}

// TestRepairDeterministic: the action list is part of mdcrash's output, so
// it must come out in one order — pass by pass, ascending inode within a
// pass — not in whatever order a map iterates.
func TestRepairDeterministic(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	want := fsck.Repair(append([]byte(nil), img...))
	if len(want) < 2 {
		t.Fatalf("mid-crash noorder image needed %d repairs; nothing to order", len(want))
	}
	for i := 1; i < 20; i++ {
		if got := fsck.Repair(append([]byte(nil), img...)); !slices.Equal(got, want) {
			t.Fatalf("repair %d listed its actions differently:\ngot:  %q\nwant: %q", i, got, want)
		}
	}
}

// liveDirSectors returns the image offsets of the chunks (sectors) of every
// directory's direct blocks in a finished image.
func liveDirSectors(t testing.TB, img []byte) []int64 {
	sb := superblockOf(t, img)
	var out []int64
	for ino := ffs.RootIno; uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		for pos := 0; ip.IsDir() && pos+ffs.DirChunk <= int(ip.Size); pos += ffs.DirChunk {
			out = append(out, int64(ip.Direct[pos/ffs.BlockSize])*ffs.FragSize+int64(pos%ffs.BlockSize))
		}
	}
	if len(out) == 0 {
		t.Fatal("image has no directory data")
	}
	return out
}

func countKind(rep *fsck.Report, k fsck.Kind) (n int) {
	for _, f := range rep.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// TestRepairFixesNameOverrun: an entry whose reclen is valid but whose name
// runs past it is malformed to Check, so it must be to Repair — one Repair
// clears it, a second finds nothing to do.
func TestRepairFixesNameOverrun(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	le := binary.LittleEndian
	victim := int64(-1)
search:
	for _, chunk := range liveDirSectors(t, img) {
		for off := int64(0); off < ffs.DirChunk; {
			reclen := int64(le.Uint16(img[chunk+off+4:]))
			if off >= 24 && le.Uint32(img[chunk+off:]) != 0 && reclen < 200 {
				victim = chunk + off
				break search
			}
			off += reclen
		}
	}
	if victim < 0 {
		t.Fatal("no live entry to corrupt")
	}
	img[victim+6] = 250 // namelen
	if countKind(fsck.Check(img), fsck.BadDirFormat) == 0 {
		t.Fatal("Check accepts a name that overruns its entry")
	}
	fsck.Repair(img)
	if rep := fsck.Check(img); countKind(rep, fsck.BadDirFormat) != 0 {
		t.Fatalf("bad directory format survived repair: %v", rep.Findings)
	}
	if again := fsck.Repair(img); len(again) != 0 {
		t.Fatalf("second repair still acted: %v", again)
	}
}

// TestRepairConvergesOnCorruptDirectories scribbles 1-8 random bytes over
// live directory chunks, 200 seeded times: whatever Check's parse rejects
// Repair must reformat, in one go.
func TestRepairConvergesOnCorruptDirectories(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	clean := r.dsk.CloneImage()
	chunks := liveDirSectors(t, clean)
	img := make([]byte, len(clean))
	rng := uint64(0xd12c0de)
	for trial := 0; trial < 200; trial++ {
		copy(img, clean)
		for k := int(splitmix(&rng)%8) + 1; k > 0; k-- {
			chunk := chunks[splitmix(&rng)%uint64(len(chunks))]
			img[chunk+int64(splitmix(&rng)%ffs.DirChunk)] = byte(splitmix(&rng))
		}
		fsck.Repair(img)
		if rep := fsck.Check(img); countKind(rep, fsck.BadDirFormat) != 0 {
			t.Fatalf("trial %d: bad directory format survived repair: %v", trial, rep.Findings)
		}
		if again := fsck.Repair(img); len(again) != 0 {
			t.Fatalf("trial %d: second repair still acted: %v", trial, again)
		}
	}
}
