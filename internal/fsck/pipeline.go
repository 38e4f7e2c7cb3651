package fsck

// Pass-pipelined parallel checking, after pFSCK: the inode scan fans out
// across goroutines, and every directory it discovers flows through a
// bounded channel to concurrent dirent-walk workers while the scan is
// still running — pass-level parallelism within one image, for when
// images are large but crash instants are few. The merge (link counts,
// bitmap reconciliation, and all finding emission) stays single-threaded
// and ascending-inode-ordered, so the report is byte-identical to
// CheckImage's no matter the worker count.

import (
	"sync"
	"sync/atomic"

	"metaupdate/internal/ffs"
)

// CheckImagePipelined is CheckImage with pass-level parallelism. workers
// <= 1 degenerates to the serial checker. img must support concurrent
// Range (Bytes does) or implement Forkable; each goroutine derives through
// its own fork.
func CheckImagePipelined(img Image, workers int) *Report {
	if workers <= 1 {
		return CheckImage(img)
	}
	rep := &Report{Refs: make(map[ffs.Ino]int)}
	var sb ffs.Superblock
	if err := decodeSB(img, &sb); err != nil {
		rep.add(BadSuperblock, 0, "%v", err)
		return rep
	}
	st := getCheckState(sb)
	deriveAllParallel(img, st, workers)
	st.merge(img, rep, nil)
	checkStates.Put(st)
	return rep
}

func forkOf(img Image) Image {
	if f, ok := img.(Forkable); ok {
		return f.Fork()
	}
	return img
}

// deriveAllParallel fills st's records using workers goroutines per stage:
// scan workers claim 64-inode chunks off an atomic cursor and derive inode
// records; each discovered valid directory is handed through a bounded
// channel to dirent workers that derive its parse concurrently. Records
// land in disjoint slice slots, and the channel send orders each inode
// record before its directory parse, so the fill is race-free; the caller
// merges only after both stages drain.
func deriveAllParallel(img Image, st *checkState, workers int) {
	nino := st.sb.NInodes
	dirCh := make(chan ffs.Ino, 256)
	var cursor atomic.Uint32
	const chunk = 64

	var scanWG, dirWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			d := deriver{img: forkOf(img), sb: &st.sb}
			for {
				lo := cursor.Add(chunk) - chunk
				if lo >= nino {
					return
				}
				hi := lo + chunk
				if hi > nino {
					hi = nino
				}
				if lo < 2 {
					lo = 2
				}
				for ino := ffs.Ino(lo); uint32(ino) < hi; ino++ {
					r := &st.inodes[ino]
					d.deriveInode(ino, r)
					if r.alloc && r.ok && r.ip.IsDir() {
						dirCh <- ino
					}
				}
			}
		}()
		dirWG.Add(1)
		go func() {
			defer dirWG.Done()
			d := deriver{img: forkOf(img), sb: &st.sb}
			for ino := range dirCh {
				r := &st.inodes[ino]
				d.deriveDir(ino, &r.ip, &st.dirs[ino])
			}
		}()
	}
	scanWG.Wait()
	close(dirCh)
	dirWG.Wait()
}
