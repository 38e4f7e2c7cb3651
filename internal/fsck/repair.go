package fsck

import (
	"fmt"

	"metaupdate/internal/ffs"
)

// Repair fixes an image in place the way the fsck utility the paper leans
// on would ("each requires assistance (provided by the fsck utility in
// UNIX systems) when recovering from system failure"):
//
//   - free maps are rebuilt from the reachable structures (reclaiming
//     leaked blocks and inodes, re-marking referenced ones);
//   - link counts are set to the observed reference counts;
//   - directory entries naming unallocated inodes are cleared ("." and
//     ".." re-pointed), directory chunks that do not parse are reformatted;
//   - inodes whose size implies blocks that are missing or out of range
//     are truncated to the portion that verifies;
//   - allocated inodes with no remaining references are freed (a real
//     fsck moves them to lost+found; this substrate has none).
//
// Repair reads the image the way Check does — it consumes the deriver's
// records (passes.go) and edits where they point — so what Check rejects is
// exactly what Repair acts on. It returns the actions taken, pass by pass
// and by ascending inode within a pass. After Repair, Check reports no
// findings unless the damage was beyond this repertoire (cross-linked
// blocks are resolved by truncating the later claimant).
func Repair(img []byte) []string {
	var sb ffs.Superblock
	if err := decodeSB(Bytes(img), &sb); err != nil {
		return []string{"unrepairable: " + err.Error()}
	}
	var actions []string
	log := func(format string, args ...interface{}) {
		actions = append(actions, fmt.Sprintf(format, args...))
	}
	st := getCheckState(sb)
	d := deriver{img: Bytes(img), sb: &sb}
	putInode := func(ino ffs.Ino, ip *ffs.Inode) {
		ffs.EncodeInode(ip, img[d.inodeOff(ino):])
	}
	// valid reports whether ino names an inode the repaired image keeps.
	valid := func(ino ffs.Ino) bool {
		return ino >= 2 && uint32(ino) < sb.NInodes && st.inodes[ino].ok
	}
	// own[frag-DataStart] is the inode holding the fragment (0 = none).
	own := make([]ffs.Ino, sb.TotalFrags-sb.DataStart)
	claim := func(ino ffs.Ino, s *istep) bool {
		run := own[s.start-sb.DataStart : s.start+s.n-sb.DataStart]
		for _, o := range run {
			if o != 0 && o != ino {
				return false
			}
		}
		for i := range run {
			run[i] = ino
		}
		return true
	}

	// Pass 1: replay every inode's walk script, first claimant wins. The
	// first step that is a finding, or a claim on another inode's fragments,
	// is where the block map stops verifying: the file ends there.
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := &st.inodes[ino]
		d.deriveInode(ino, r)
		if r.alloc && !r.ok {
			log("cleared inode %d with bad mode %#x", ino, r.ip.Mode)
			r.ip = ffs.Inode{}
			putInode(ino, &r.ip)
			continue
		}
		for i := range r.steps {
			if s := &r.steps[i]; !s.claim() || !claim(ino, s) {
				truncateInode(&r.ip, int(s.bi))
				putInode(ino, &r.ip)
				log("truncated inode %d to %d bytes (unverifiable block map)", ino, r.ip.Size)
				break
			}
		}
	}

	// Pass 2: directory structure — reformat the chunks the parse rejects,
	// reseed "." and ".." where the parse of what is left misses them — then
	// count references, clearing dangling entries.
	var e dirent
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := &st.inodes[ino]
		if !r.ok || !r.ip.IsDir() {
			continue
		}
		c := d.openDir(&r.ip, nil)
		for c.next(&e) {
			if e.bad {
				in := e.off % ffs.DirChunk
				chunk := e.at - int64(in)
				reformatChunk(img[chunk:chunk+ffs.DirChunk], ino, e.off == in)
				log("reformatted garbage chunk %d of directory %d", (e.off-in)%ffs.BlockSize, ino)
			}
		}
		dr := &st.dirs[ino]
		d.deriveDir(ino, &r.ip, dr)
		if !dr.empty && !(dr.sawDot && dr.sawDotdot) && c.size >= ffs.DirChunk {
			reformatChunk(img[c.at(0):c.at(0)+ffs.DirChunk], ino, true)
			log("reseeded '.' and '..' in directory %d", ino)
		}
	}
	refs := make([]int, sb.NInodes)
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := &st.inodes[ino]
		if !r.ok || !r.ip.IsDir() {
			continue
		}
		c := d.openDir(&r.ip, nil)
		for c.next(&e) {
			switch {
			case e.bad:
			case valid(e.ino):
				refs[e.ino]++
			default:
				// Dangling. An entry is cleared by naming inode 0; "." and
				// "..", which a directory may not lose, are re-pointed the
				// way reformatChunk seeds them.
				to := ffs.Ino(0)
				switch string(e.name) {
				case ".":
					to = ino
				case "..":
					to = ffs.RootIno
				}
				ffs.PutDirent(img[e.at:], to, e.reclen, string(e.name), e.ftype)
				if to == 0 {
					log("cleared dangling entry in inode %d (named %d)", ino, e.ino)
				} else {
					refs[to]++
					log("re-pointed dangling %q in directory %d at inode %d (named %d)", e.name, ino, to, e.ino)
				}
			}
		}
	}

	// Pass 3: link counts and orphan inodes.
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := &st.inodes[ino]
		if !r.ok {
			continue
		}
		if n := refs[ino]; n == 0 && ino != ffs.RootIno {
			r.ip = ffs.Inode{}
			putInode(ino, &r.ip)
			log("freed orphan inode %d (no references)", ino)
		} else if int(r.ip.Nlink) != n {
			r.ip.Nlink = uint16(n)
			putInode(ino, &r.ip)
			log("set inode %d link count to %d", ino, n)
		}
	}

	// Pass 4: rebuild both bitmaps from what a fresh derivation of the
	// edited image claims — what the next Check will compare them against.
	clear(own)
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		r := &st.inodes[ino]
		d.deriveInode(ino, r)
		for i := range r.steps {
			if s := &r.steps[i]; s.claim() {
				for f := s.start; f < s.start+s.n; f++ {
					own[f-sb.DataStart] = ino
				}
			}
		}
	}
	if n := setBitmap(img[int64(sb.FBmapStart)*ffs.FragSize:], int(sb.TotalFrags), func(f int) bool {
		return f < int(sb.DataStart) || own[f-int(sb.DataStart)] != 0
	}); n > 0 {
		log("rebuilt fragment bitmap (%d bits corrected)", n)
	}
	if n := setBitmap(img[int64(sb.IBmapStart)*ffs.FragSize:], int(sb.NInodes), func(ino int) bool {
		return ino <= int(ffs.RootIno) || st.inodes[ino].ok
	}); n > 0 {
		log("rebuilt inode bitmap (%d bits corrected)", n)
	}
	putCheckState(st)
	return actions
}

// setBitmap makes bits [0, n) of bm equal want, returning how many changed.
func setBitmap(bm []byte, n int, want func(i int) bool) (changed int) {
	for i := 0; i < n; i++ {
		if mask := byte(1) << (uint(i) % 8); want(i) != (bm[i/8]&mask != 0) {
			bm[i/8] ^= mask
			changed++
		}
	}
	return changed
}

// truncateInode shrinks ip to end before file block truncAt.
func truncateInode(ip *ffs.Inode, truncAtBlock int) {
	newSize := uint64(truncAtBlock) * ffs.BlockSize
	if newSize > ip.Size {
		newSize = ip.Size
	}
	ip.Size = newSize
	for bi := truncAtBlock; bi < ffs.NDirect; bi++ {
		ip.Direct[bi] = 0
	}
	if truncAtBlock <= ffs.NDirect {
		ip.Indir = 0
		ip.Dindir = 0
	} else if truncAtBlock <= ffs.NDirect+ffs.PtrsPerBlock {
		ip.Dindir = 0
	}
}

// reformatChunk turns a structurally invalid 512-byte directory chunk into
// a single empty entry; for a directory's first chunk, "." and ".." are
// re-seeded ("..", with the true parent unknowable, points at the root —
// a real fsck would reattach under lost+found).
func reformatChunk(chunk []byte, self ffs.Ino, first bool) {
	clear(chunk)
	if !first {
		ffs.PutDirent(chunk, 0, len(chunk), "", 0)
		return
	}
	ffs.PutDirent(chunk[0:], self, 12, ".", ffs.FtypeDir)
	ffs.PutDirent(chunk[12:], ffs.RootIno, len(chunk)-12, "..", ffs.FtypeDir)
}
