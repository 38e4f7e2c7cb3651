package ordering_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/fault"
	"metaupdate/internal/ffs"
	"metaupdate/internal/jlog"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// quiesce writes every dirty buffer home and waits for the driver: every
// transaction is retired afterwards.
func (r *rig) quiesce(p *sim.Proc) {
	r.fs.Sync(p)
	r.drv.WaitIdle(p)
}

// mustCreate creates name in dir; the rigs here never run out of anything.
func (r *rig) mustCreate(t *testing.T, p *sim.Proc, dir ffs.Ino, name string) ffs.Ino {
	t.Helper()
	ino, err := r.fs.Create(p, dir, name)
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

// extend appends half a kilobyte to a file that has room for it in its
// last fragment: the data buffer and — through MetaUpdate, which does not
// journal — the size in the inode block change, nothing is allocated.
func (r *rig) extend(t *testing.T, p *sim.Proc, ino ffs.Ino) {
	t.Helper()
	ip, err := r.fs.Stat(p, ino)
	if err == nil {
		err = r.fs.WriteAt(p, ino, ip.Size, make([]byte, 512))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// warmInodes creates ten files in the root, so the inodes created next sit
// past the first fragment of their inode block: a one-fragment image of the
// block then begins in mid-buffer.
func (r *rig) warmInodes(t *testing.T, p *sim.Proc) {
	t.Helper()
	for i := 0; i < 10; i++ {
		r.mustCreate(t, p, ffs.RootIno, fmt.Sprintf("w%d", i))
	}
	r.quiesce(p)
}

// TestJournalDeltaImages reads the write discipline back from the log on
// the media: the first journaling of an inode block since its last home
// write is the whole block, the next one before its home write is the one
// fragment that changed, the first after its home write is whole again, and
// journaling an unchanged block writes no transaction.
func TestJournalDeltaImages(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	sb := r.fs.Superblock()
	r.run(t, func(p *sim.Proc) {
		r.warmInodes(t, p)
		base := len(logTxns(t, r))
		// Each create commits the inode block alone (the log is idle) and
		// then the directory block behind it; with no syncer nothing goes
		// home until quiesce.
		r.mustCreate(t, p, ffs.RootIno, "a")
		r.drv.WaitIdle(p)
		b := r.mustCreate(t, p, ffs.RootIno, "b")
		r.drv.WaitIdle(p)
		r.quiesce(p)
		c := r.mustCreate(t, p, ffs.RootIno, "c")
		r.drv.WaitIdle(p)

		txns := logTxns(t, r)[base:]
		if len(txns) != 6 {
			t.Fatalf("three creates made %d transactions, want an inode-block and a directory-block one each: %v", len(txns), txns)
		}
		iblk, boff := sb.InodeFrag(b)
		whole := []jlog.HomeRun{{Frag: int64(iblk), NFrags: ffs.BlockFrags}}
		delta := []jlog.HomeRun{{Frag: int64(iblk) + int64(boff/ffs.FragSize), NFrags: 1}}
		if delta[0].Frag == int64(iblk) {
			t.Fatalf("inode %d sits in the first fragment of its block; the delta would not begin in mid-buffer", b)
		}
		if !slices.Equal(txns[0], whole) {
			t.Errorf("first journaling since the home write logged %v, want the whole block %v", txns[0], whole)
		}
		if !slices.Equal(txns[2], delta) {
			t.Errorf("second journaling before the home write logged %v, want the changed fragment %v", txns[2], delta)
		}
		if !slices.Equal(txns[4], whole) {
			t.Errorf("first journaling after the home write logged %v, want the whole block %v", txns[4], whole)
		}

		// c's inode block is dirty and its image is in the log as it stands:
		// an fsync journals it again and has nothing to write or wait for.
		txnsBefore, reqs, t0 := j.Txns, r.drv.Trace.Requests(), p.Now()
		if err := r.fs.Fsync(p, c); err != nil {
			t.Fatal(err)
		}
		if j.Txns != txnsBefore || r.drv.Trace.Requests() != reqs {
			t.Errorf("re-journaling an unchanged block wrote %d transactions in %d requests, want none",
				j.Txns-txnsBefore, r.drv.Trace.Requests()-reqs)
		}
		if waited := p.Now() - t0; waited > sim.Millisecond {
			t.Errorf("fsync with nothing to commit and no log write in flight took %v", waited)
		}
		r.quiesce(p)
	})
}

// TestJournalTrimmedMemberOrdersHomeWrite: the run a trimmed member leaves
// in the log begins in mid-buffer, where the cache has no buffer; the home
// write that must wait for the commit is still the member buffer's.
func TestJournalTrimmedMemberOrdersHomeWrite(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	sb := r.fs.Superblock()
	r.run(t, func(p *sim.Proc) {
		r.warmInodes(t, p)
		r.mustCreate(t, p, ffs.RootIno, "a")
		r.drv.WaitIdle(p)
		var subs submitLog
		r.drv.SetObserver(&subs)
		b := r.mustCreate(t, p, ffs.RootIno, "b") // submits the inode block's delta at once
		r.drv.SetObserver(nil)
		if len(subs.ids) != 1 {
			t.Fatalf("create submitted %d requests, want the inode block's log write alone", len(subs.ids))
		}
		iblk, _ := sb.InodeFrag(b)
		req := r.c.Bawrite(p, r.c.Lookup(int64(iblk)))
		if !slices.Contains(req.DependsOn, subs.ids[0]) {
			t.Fatalf("home write of the inode block depends on %v, want the delta's log write %d among them", req.DependsOn, subs.ids[0])
		}
		r.quiesce(p)
		txns := logTxns(t, r)
		if run := txns[len(txns)-2]; len(run) != 1 || run[0].NFrags != 1 || run[0].Frag == int64(iblk) {
			t.Fatalf("the inode block's second journaling logged %v, want one fragment in mid-buffer", run)
		}
	})
}

// liveTxns returns the home runs of the transactions replay would apply:
// the committed chain from the durable header's tail, wraps included.
func liveTxns(r *rig) [][]jlog.HomeRun {
	sb := r.fs.Superblock()
	region := r.dsk.Image()[int64(sb.JournalStart)*ffs.FragSize : int64(sb.JournalStart+sb.JournalFrags)*ffs.FragSize]
	hdr, _ := jlog.DecodeHeader(region)
	var txns [][]jlog.HomeRun
	at := func(off int32) (int32, bool) {
		if off < 1 || off+2 > sb.JournalFrags {
			return 0, false
		}
		seq, pf, homes, ok := jlog.DecodeBegin(region[int64(off)*ffs.FragSize:], nil)
		if !ok || seq != hdr.TailSeq+uint64(len(txns)) || off+2+pf > sb.JournalFrags {
			return 0, false
		}
		if cseq, _, _, ok := jlog.DecodeCommit(region[int64(off+1+pf)*ffs.FragSize:]); !ok || cseq != seq {
			return 0, false
		}
		txns = append(txns, homes)
		return off + jlog.TxnFrags(pf), true
	}
	for off, ok := hdr.TailOff, true; ok; {
		next, found := at(off)
		if !found {
			next, found = at(1)
		}
		off, ok = next, found
	}
	return txns
}

// TestJournalReplayReproducesLastImage is the delta invariant: at any
// instant at which every submitted log write is complete, replaying the
// media image leaves every buffer some unretired transaction waits on equal,
// byte for byte, to the image it had when last journaled — whole images,
// deltas, wraps, reclaimed space and checkpoint flushes included. The log is
// small enough for all of them.
func TestJournalReplayReproducesLastImage(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 48)
	sb := r.fs.Superblock()
	checked, trimmed := 0, 0
	check := func(p *sim.Proc, step string) {
		r.drv.WaitIdle(p) // the open transaction closed as the log went idle
		img := r.dsk.CloneImage()
		for _, homes := range liveTxns(r) {
			for _, h := range homes {
				if b := r.c.Lookup(h.Frag); b == nil || int(h.NFrags) < b.NFrags() {
					trimmed++
				}
			}
		}
		jlog.Replay(img, sb.JournalStart, sb.JournalFrags)
		j.PrevImages(func(frag int64, want []byte) {
			if b := r.c.Lookup(frag); b == nil || len(b.Data) != len(want) {
				return // freed since: no one will read this image back
			}
			checked++
			if got := img[frag*ffs.FragSize : frag*ffs.FragSize+int64(len(want))]; !bytes.Equal(got, want) {
				t.Fatalf("after %s: replay leaves the %d-fragment buffer at %d different from its last journaled image",
					step, len(want)/ffs.FragSize, frag)
			}
		})
	}
	r.run(t, func(p *sim.Proc) {
		var dirs [3]ffs.Ino
		for d := range dirs {
			var err error
			if dirs[d], err = r.fs.Mkdir(p, ffs.RootIno, fmt.Sprintf("d%d", d)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 72; i++ {
			dir, name := dirs[i%3], fmt.Sprintf("f%d", i)
			ino := r.mustCreate(t, p, dir, name)
			check(p, "create "+name)
			if i%2 == 0 {
				if err := r.fs.WriteAt(p, ino, 0, make([]byte, 1024*(1+i%4))); err != nil {
					t.Fatal(err)
				}
				check(p, "write "+name)
			}
			if i%3 == 1 {
				if err := r.fs.Rename(p, dir, name, dirs[(i+1)%3], name+"r"); err != nil {
					t.Fatal(err)
				}
				check(p, "rename "+name)
			}
			if i%4 == 3 {
				if err := r.fs.Unlink(p, dirs[(i-1)%3], fmt.Sprintf("f%d", i-1)); err != nil && err != ffs.ErrNotExist {
					t.Fatal(err)
				}
				check(p, "unlink before "+name)
			}
			if i%8 == 5 {
				if err := r.fs.Fsync(p, ino); err != nil {
					t.Fatal(err)
				}
				check(p, "fsync "+name)
			}
		}
		r.quiesce(p)
	})
	if checked == 0 || j.Wraps == 0 || j.Flushes == 0 {
		t.Fatalf("churn checked %d images over %d wraps and %d checkpoint flushes; it must exercise all three", checked, j.Wraps, j.Flushes)
	}
	if trimmed == 0 {
		t.Fatal("no replayed log held a trimmed image: the churn journaled whole buffers only")
	}
}

// TestJournalFsyncSharesCommit: fsyncs that arrive while a log write is in
// flight gather in the open transaction and are made durable by its one
// commit; none of them writes anything synchronously. A second round runs
// beside a process that keeps journaling (and so keeps recycling completed
// log requests) while the fsyncs are parked.
func TestJournalFsyncSharesCommit(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	const n = 8
	var files [n]ffs.Ino
	r.run(t, func(p *sim.Proc) {
		for i := range files {
			files[i] = r.mustCreate(t, p, ffs.RootIno, fmt.Sprintf("f%d", i))
			if err := r.fs.WriteAt(p, files[i], 0, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.fs.Mkdir(p, ffs.RootIno, "busy"); err != nil {
			t.Fatal(err)
		}
		r.quiesce(p)
	})
	round := func(churn int) int64 {
		txns, sync := j.Txns, r.c.SyncWrites
		returned := 0
		for i := range files {
			ino := files[i]
			r.eng.Spawn(fmt.Sprintf("fsync%d", i), func(p *sim.Proc) {
				r.extend(t, p, ino)
				if err := r.fs.Fsync(p, ino); err != nil {
					t.Error(err)
				}
				returned++
			})
		}
		r.eng.Spawn("churn", func(p *sim.Proc) {
			busy, _ := r.fs.Lookup(p, ffs.RootIno, "busy")
			for k := 0; k < churn; k++ {
				r.mustCreate(t, p, busy, fmt.Sprintf("c%d", k))
			}
		})
		r.eng.Run()
		if returned != n {
			t.Fatalf("%d of %d fsyncs returned", returned, n)
		}
		if got := r.c.SyncWrites - sync; got != 0 {
			t.Fatalf("fsyncs issued %d synchronous writes, want none", got)
		}
		return j.Txns - txns
	}
	if got := round(0); got < 1 || got >= n {
		t.Fatalf("%d concurrent fsyncs made %d log writes, want at least one and fewer than one each", n, got)
	}
	round(12)
	r.run(t, r.quiesce)
}

// TestJournalAllTrimmedWakesWaiters: an fsync whose inode block image is
// already in the log write in flight joins the open transaction all the
// same; when that transaction trims to nothing and is never written, the
// fsync is durable as soon as the log write in flight is.
func TestJournalAllTrimmedWakesWaiters(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	var f1, f2 ffs.Ino
	r.run(t, func(p *sim.Proc) {
		f1 = r.mustCreate(t, p, ffs.RootIno, "f1")
		f2 = r.mustCreate(t, p, ffs.RootIno, "f2")
		for _, ino := range []ffs.Ino{f1, f2} {
			if err := r.fs.WriteAt(p, ino, 0, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
		}
		r.quiesce(p)
		// Both sizes change in the one inode block before either fsync.
		r.extend(t, p, f1)
		r.extend(t, p, f2)
	})
	txns := j.Txns
	var done [2]sim.Time
	for i, ino := range []ffs.Ino{f1, f2} {
		i, ino := i, ino
		r.eng.Spawn(fmt.Sprintf("fsync%d", i), func(p *sim.Proc) {
			if err := r.fs.Fsync(p, ino); err != nil {
				t.Error(err)
			}
			done[i] = p.Now()
		})
	}
	r.eng.Run()
	if done[0] == 0 || done[1] == 0 {
		t.Fatalf("fsyncs returned at %v and %v: the one behind the empty transaction never woke", done[0], done[1])
	}
	if got := j.Txns - txns; got != 1 {
		t.Fatalf("two fsyncs of one unchanged inode block image made %d log writes, want 1", got)
	}
	r.run(t, r.quiesce)
}

// failWrites fails every write that touches sectors [lo, hi), for good.
type failWrites struct{ lo, hi int64 }

func (f failWrites) Judge(write bool, lbn int64, count int, _ func(int64) bool) fault.Outcome {
	if write && lbn < f.hi && lbn+int64(count) > f.lo {
		return fault.Outcome{Kind: fault.Transient}
	}
	return fault.Outcome{}
}

// TestJournalFsyncReportsWriteErrors: a commit or a data write that the
// driver gives up on must come back as the fsync's error, never as
// "durable".
func TestJournalFsyncReportsWriteErrors(t *testing.T) {
	for _, target := range []string{"commit", "data"} {
		t.Run(target, func(t *testing.T) {
			r := newJournaledRig(t, ordering.NewJournal(), 256)
			sb := r.fs.Superblock()
			r.run(t, func(p *sim.Proc) {
				ino := r.mustCreate(t, p, ffs.RootIno, "f")
				if err := r.fs.WriteAt(p, ino, 0, make([]byte, 512)); err != nil {
					t.Fatal(err)
				}
				r.quiesce(p)
				bad := failWrites{int64(sb.JournalStart) * cache.SectorsPerFrag, int64(sb.JournalStart+sb.JournalFrags) * cache.SectorsPerFrag}
				if target == "data" {
					ip, err := r.fs.Stat(p, ino)
					if err != nil {
						t.Fatal(err)
					}
					bad = failWrites{int64(ip.Direct[0]) * cache.SectorsPerFrag, int64(ip.Direct[0]+1) * cache.SectorsPerFrag}
				}
				r.dsk.SetFaults(bad, 0)
				r.extend(t, p, ino)
				if err := r.fs.Fsync(p, ino); err == nil {
					t.Fatalf("fsync reported durable although its %s write failed", target)
				}
				r.dsk.SetFaults(nil, 0)
			})
		})
	}
}

// TestJournalSlabsPooled: previous-image slabs return to the pool as their
// buffers go home, and an identical second round takes them from there.
func TestJournalSlabsPooled(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	round := func(tag string) (pooled int) {
		r.run(t, func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				dir, err := r.fs.Mkdir(p, ffs.RootIno, fmt.Sprintf("%s%d", tag, i))
				if err != nil {
					t.Fatal(err)
				}
				r.mustCreate(t, p, dir, "f")
			}
			if _, held := j.Slabs(); held == 0 {
				t.Fatal("no previous image held while transactions are unretired")
			}
			r.quiesce(p)
		})
		pooled, held := j.Slabs()
		if held != 0 {
			t.Fatalf("%d previous images still held with every buffer home", held)
		}
		return pooled
	}
	first := round("a")
	if second := round("b"); first == 0 || second != first {
		t.Fatalf("pool holds %d slabs after one round and %d after an identical second one", first, second)
	}
}
