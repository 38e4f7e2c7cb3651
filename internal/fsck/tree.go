package fsck

import (
	"fmt"

	"metaupdate/internal/ffs"
)

// TreeEntry describes one reachable object in an image's logical namespace.
type TreeEntry struct {
	Ino  ffs.Ino
	Dir  bool
	Size uint64
}

// Tree walks the directory namespace of img from the root and returns the
// reachable entries keyed by slash-separated path; the root itself is "/".
// "." and ".." entries are skipped, and a directory is descended into at
// most once (cycles in a corrupted image terminate instead of looping).
//
// The walk is the logical-state oracle behind the differential tests: two
// images are "logically equal" iff their Trees are equal, and a recovered
// image is a consistent prefix of a run iff its Tree relates to the
// no-crash Tree per the paper's visibility rules. It deliberately reads
// only the namespace — allocation bitmaps, free counts, and physical
// placement are fsck's department, not the application's.
//
// A structurally broken image (bad superblock, pointers off the media)
// returns an error rather than panicking.
func Tree(img Image) (tree map[string]TreeEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("tree walk failed: %v", p)
		}
	}()
	var sb ffs.Superblock
	if derr := decodeSB(img, &sb); derr != nil {
		return nil, derr
	}
	d := deriver{img: img, sb: &sb}
	root := d.readInode(ffs.RootIno)
	if !root.IsDir() {
		return nil, fmt.Errorf("root inode is not a directory")
	}
	tree = make(map[string]TreeEntry)
	tree["/"] = TreeEntry{Ino: ffs.RootIno, Dir: true, Size: root.Size}
	// WalkTree descends into a directory where it first meets it, parents
	// before children: that entry's path prefixes everything inside.
	paths := map[ffs.Ino]string{ffs.RootIno: ""}
	WalkTree(img, func(e WalkEntry) bool {
		path := paths[e.Parent] + "/" + e.Name
		tree[path] = TreeEntry{Ino: e.Ino, Dir: e.Inode.IsDir(), Size: e.Inode.Size}
		if _, seen := paths[e.Ino]; e.Inode.IsDir() && !seen {
			paths[e.Ino] = path
		}
		return true
	})
	return tree, nil
}
