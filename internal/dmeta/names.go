package dmeta

import (
	"strconv"
	"strings"

	"metaupdate/internal/ffs"
)

// A node backs its shard of the namespace with files of its local file
// system, named by one grammar: /i/x<hex> is logical inode <hex>'s backing
// file and /i/x<hex>.l<n> its n-th link (n >= 2); /d/p<hex> holds the
// entries of logical directory <hex>, one file <name>=<hex> per entry, <hex>
// the inode it names. The formatters below write the grammar,
// ParseBackingName reads it, and nothing else knows it.

const inoDirName, dentDirName = "i", "d"

func inoName(ino uint64) string { return "x" + strconv.FormatUint(ino, 16) }

func linkName(ino uint64, nlink int) string {
	return inoName(ino) + ".l" + strconv.Itoa(nlink)
}

func parentDirName(parent uint64) string { return "p" + strconv.FormatUint(parent, 16) }

func dentName(name string, target uint64) string {
	return name + "=" + strconv.FormatUint(target, 16)
}

// Kind says what an entry of a node's backing tree is.
type Kind uint8

const (
	KindBad       Kind = iota // fits the grammar nowhere
	KindRoot                  // the root of the tree, parent of the next two
	KindInoDir                // /i
	KindDentDir               // /d
	KindInoFile               // /i/x<hex>
	KindLinkFile              // /i/x<hex>.l<n>
	KindParentDir             // /d/p<hex>
	KindDentry                // /d/p<hex>/<name>=<hex>
)

// ParseBackingName classifies the entry called name, of directory-entry type
// ftype, found in a directory of kind parent, and returns the logical inode
// id in the name: the inode a file backs or links, the directory a p-dir
// serves, the inode a dentry names. Exactly the names the formatters write
// are accepted, so parsing and re-formatting is the identity.
func ParseBackingName(parent Kind, name string, ftype uint8) (Kind, uint64) {
	dir := ftype == ffs.FtypeDir
	if !dir && ftype != ffs.FtypeFile {
		return KindBad, 0
	}
	switch parent {
	case KindRoot:
		if dir && name == inoDirName {
			return KindInoDir, 0
		}
		if dir && name == dentDirName {
			return KindDentDir, 0
		}
	case KindInoDir:
		hex, n, link := strings.Cut(name, ".l")
		id, ok := parseID("x", hex)
		if dir || !ok {
			break
		}
		if !link {
			return KindInoFile, id
		}
		if k, err := strconv.Atoi(n); err == nil && k >= 2 && name == linkName(id, k) {
			return KindLinkFile, id
		}
	case KindDentDir:
		if id, ok := parseID("p", name); ok && dir {
			return KindParentDir, id
		}
	case KindParentDir:
		// The logical name never contains '=' (routers only pass workload
		// names through) and is never empty.
		if base, hex, ok := strings.Cut(name, "="); ok && base != "" && !dir {
			if id, ok := parseID("", hex); ok {
				return KindDentry, id
			}
		}
	}
	return KindBad, 0
}

// parseID reads prefix followed by an id as strconv.FormatUint(id, 16)
// writes it: lowercase, no sign, no leading zeros.
func parseID(prefix, s string) (uint64, bool) {
	hex, ok := strings.CutPrefix(s, prefix)
	id, err := strconv.ParseUint(hex, 16, 64)
	return id, ok && err == nil && hex == strconv.FormatUint(id, 16)
}
