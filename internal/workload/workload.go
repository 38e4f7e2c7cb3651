// Package workload implements the paper's benchmark workloads against the
// substrate file system:
//
//   - the synthetic "home directory" tree (535 files totaling 14.3 MB —
//     section 2) with deterministic pseudo-random sizes, plus recursive
//     copy and remove (the N-user copy/remove benchmarks);
//   - the 1 KB file create / remove / create-remove throughput loops of
//     figure 5;
//   - an emulation of the original Andrew benchmark's five phases
//     (table 3);
//   - an Sdet-like software-development script mix (figure 6).
//
// All workloads are deterministic given their seeds.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// TreeSpec describes a synthetic directory tree.
type TreeSpec struct {
	Files      int
	TotalBytes int64
	Dirs       int
	Seed       int64
}

// PaperTree matches the tree of the paper's copy/remove benchmarks:
// "535 files totaling 14.3 MB of storage taken from the first author's
// home directory".
func PaperTree() TreeSpec {
	return TreeSpec{Files: 535, TotalBytes: 14_300_000, Dirs: 36, Seed: 1994}
}

// Sizes returns the deterministic per-file sizes: a clamped lognormal mix
// normalized to TotalBytes (most files a few KB, a handful large — a
// typical home directory).
func (ts TreeSpec) Sizes() []int {
	rng := rand.New(rand.NewSource(ts.Seed))
	raw := make([]float64, ts.Files)
	var sum float64
	for i := range raw {
		v := math.Exp(rng.NormFloat64()*1.4 + 9.0) // median ~8 KB
		if v < 300 {
			v = 300
		}
		if v > 1.2e6 {
			v = 1.2e6
		}
		raw[i] = v
		sum += v
	}
	sizes := make([]int, ts.Files)
	var total int64
	for i, v := range raw {
		sizes[i] = int(v / sum * float64(ts.TotalBytes))
		if sizes[i] < 128 {
			sizes[i] = 128
		}
		total += int64(sizes[i])
	}
	// Pad the last file so the total is exact.
	if diff := ts.TotalBytes - total; diff > 0 {
		sizes[ts.Files-1] += int(diff)
	}
	return sizes
}

// content fills a deterministic pattern derived from the file index.
func content(idx, n int) []byte {
	b := make([]byte, n)
	fillContent(b, idx)
	return b
}

// fillContent writes the deterministic pattern for file idx into b —
// the in-place form lets tree builders reuse one scratch buffer across
// all files instead of allocating per file.
func fillContent(b []byte, idx int) {
	x := uint32(idx)*2654435761 + 12345
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
}

// Build creates the tree under parent/name and returns its root directory.
// It makes Dirs directories, the root included, each new one a child of
// the first that has fewer than three (branching factor 3), so the depth
// follows from Dirs: 36 reach three levels below the root, 8 reach two.
// Files are distributed round-robin over the directories.
func (ts TreeSpec) Build(p *sim.Proc, fs *ffs.FS, parent ffs.Ino, name string) (ffs.Ino, error) {
	root, err := fs.Mkdir(p, parent, name)
	if err != nil {
		return 0, err
	}
	dirs := []ffs.Ino{root}
	for d := 1; d < ts.Dirs; d++ {
		parentDir := dirs[(d-1)/3] // branching factor 3
		nd, err := fs.Mkdir(p, parentDir, fmt.Sprintf("dir%03d", d))
		if err != nil {
			return 0, err
		}
		dirs = append(dirs, nd)
	}
	sizes := ts.Sizes()
	maxSize := 0
	for _, size := range sizes {
		if size > maxSize {
			maxSize = size
		}
	}
	// One scratch buffer serves every file: WriteAt copies the payload
	// into cache blocks, so the buffer is dead once the call returns.
	scratch := make([]byte, maxSize)
	for i, size := range sizes {
		dir := dirs[i%len(dirs)]
		ino, err := fs.Create(p, dir, fmt.Sprintf("file%04d", i))
		if err != nil {
			return 0, err
		}
		data := scratch[:size]
		fillContent(data, i)
		if err := fs.WriteAt(p, ino, 0, data); err != nil {
			return 0, err
		}
	}
	return root, nil
}

// CopyTree recursively copies the tree rooted at (srcParent, srcName) to
// (dstParent, dstName) — the per-user body of the N-user copy benchmark.
// Files are copied in 8 KB chunks through the file system, so the source
// is read through the buffer cache and the destination allocates as a real
// cp would.
func CopyTree(p *sim.Proc, fs *ffs.FS, srcParent ffs.Ino, srcName string, dstParent ffs.Ino, dstName string) error {
	src, err := fs.Lookup(p, srcParent, srcName)
	if err != nil {
		return err
	}
	dst, err := fs.Mkdir(p, dstParent, dstName)
	if err != nil {
		return err
	}
	// The copy scratch block is shared down the recursion: ReadAt fills it
	// and WriteAt copies it out, so no call retains a reference.
	buf := make([]byte, ffs.BlockSize)
	return copyDir(p, fs, src, dst, buf)
}

func copyDir(p *sim.Proc, fs *ffs.FS, src, dst ffs.Ino, buf []byte) error {
	ents, err := fs.ReadDir(p, src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Ftype == ffs.FtypeDir {
			nd, err := fs.Mkdir(p, dst, e.Name)
			if err != nil {
				return err
			}
			if err := copyDir(p, fs, e.Ino, nd, buf); err != nil {
				return err
			}
			continue
		}
		ino, err := fs.Create(p, dst, e.Name)
		if err != nil {
			return err
		}
		var off uint64
		for {
			n, err := fs.ReadAt(p, e.Ino, off, buf)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if err := fs.WriteAt(p, ino, off, buf[:n]); err != nil {
				return err
			}
			off += uint64(n)
			if n < len(buf) {
				break
			}
		}
	}
	return nil
}

// RemoveTree recursively deletes the tree at (parent, name) — the per-user
// body of the N-user remove benchmark.
func RemoveTree(p *sim.Proc, fs *ffs.FS, parent ffs.Ino, name string) error {
	ino, err := fs.Lookup(p, parent, name)
	if err != nil {
		return err
	}
	if err := removeChildren(p, fs, ino); err != nil {
		return err
	}
	return fs.Rmdir(p, parent, name)
}

func removeChildren(p *sim.Proc, fs *ffs.FS, dir ffs.Ino) error {
	ents, err := fs.ReadDir(p, dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Ftype == ffs.FtypeDir {
			if err := removeChildren(p, fs, e.Ino); err != nil {
				return err
			}
			if err := fs.Rmdir(p, dir, e.Name); err != nil {
				return err
			}
		} else {
			if err := fs.Unlink(p, dir, e.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// CreateFiles creates `count` files of `size` bytes named f<k> in dir —
// the figure 5a loop body.
func CreateFiles(p *sim.Proc, fs *ffs.FS, dir ffs.Ino, count, size int) error {
	data := content(0, size)
	for k := 0; k < count; k++ {
		ino, err := fs.Create(p, dir, fmt.Sprintf("f%d", k))
		if err != nil {
			return err
		}
		if err := fs.WriteAt(p, ino, 0, data); err != nil {
			return err
		}
	}
	return nil
}

// RemoveFiles removes the files CreateFiles made (figure 5b).
func RemoveFiles(p *sim.Proc, fs *ffs.FS, dir ffs.Ino, count int) error {
	for k := 0; k < count; k++ {
		if err := fs.Unlink(p, dir, fmt.Sprintf("f%d", k)); err != nil {
			return err
		}
	}
	return nil
}

// CreateRemoveFiles creates and immediately removes each file (figure 5c).
func CreateRemoveFiles(p *sim.Proc, fs *ffs.FS, dir ffs.Ino, count, size int) error {
	data := content(0, size)
	for k := 0; k < count; k++ {
		ino, err := fs.Create(p, dir, fmt.Sprintf("f%d", k))
		if err != nil {
			return err
		}
		if err := fs.WriteAt(p, ino, 0, data); err != nil {
			return err
		}
		if err := fs.Unlink(p, dir, fmt.Sprintf("f%d", k)); err != nil {
			return err
		}
	}
	return nil
}
