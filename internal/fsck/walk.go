package fsck

import "metaupdate/internal/ffs"

// WalkEntry is one live directory entry visited by WalkTree ("." and ".."
// are skipped).
type WalkEntry struct {
	Parent ffs.Ino // directory holding the entry
	Depth  int     // 0 for entries of the root directory
	Name   string
	Ftype  uint8
	Ino    ffs.Ino   // the entry's target
	Inode  ffs.Inode // target's decoded inode (zero value when Ino is out of range)
}

// WalkTree walks the image's directory tree from the root in breadth-first
// order, calling fn for every live entry; fn returning false stops the
// walk. Parents are always visited before their children's entries, so fn
// can classify a directory when its entry appears and consult that
// classification for the entries inside it.
//
// The walk is corruption-tolerant — it is meant for oracles over crash
// images, where structural damage is fsck's business, not the walker's: a
// bad superblock walks nothing, out-of-range pointers and malformed entry
// chains end the affected directory, revisited directories (cycles,
// cross-linked entries) are skipped, and entries naming out-of-range
// inodes are reported with a zero Inode and never descended into.
func WalkTree(img Image, fn func(e WalkEntry) bool) {
	var sb ffs.Superblock
	if decodeSB(img, &sb) != nil || uint32(ffs.RootIno) >= sb.NInodes {
		return
	}
	d := deriver{img: img, sb: &sb}
	type dirAt struct {
		ino   ffs.Ino
		depth int
	}
	visited := make([]bool, sb.NInodes)
	visited[ffs.RootIno] = true
	queue := []dirAt{{ffs.RootIno, 0}}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		ip := d.readInode(dir.ino)
		if !ip.IsDir() {
			continue
		}
		c := d.openDir(&ip, nil)
		var ent dirent
		for c.next(&ent) {
			name := string(ent.name)
			if ent.bad || name == "." || name == ".." {
				continue // a malformed chain ends its chunk; fsck reports it
			}
			e := WalkEntry{Parent: dir.ino, Depth: dir.depth, Name: name, Ftype: ent.ftype, Ino: ent.ino}
			inRange := e.Ino >= 2 && uint32(e.Ino) < sb.NInodes
			if inRange {
				e.Inode = d.readInode(e.Ino)
			}
			if !fn(e) {
				return
			}
			if inRange && e.Inode.IsDir() && !visited[e.Ino] {
				visited[e.Ino] = true
				queue = append(queue, dirAt{e.Ino, dir.depth + 1})
			}
		}
	}
}
