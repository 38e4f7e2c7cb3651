package ordering_test

import (
	"fmt"
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/jlog"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// newJournaledRig mounts a file system formatted with a journal region of
// the given size, under the given scheme, with the chains-mode driver and
// -CB off (both new schemes' required configuration).
func newJournaledRig(t *testing.T, ord ffs.Ordering, journalFrags int32) *rig {
	t.Helper()
	return newJournaledRigCosts(t, ord, journalFrags, ffs.Costs{})
}

// newJournaledRigCosts is newJournaledRig with an explicit CPU cost model
// (the zero value is the paper's).
func newJournaledRigCosts(t *testing.T, ord ffs.Ordering, journalFrags int32, costs ffs.Costs) *rig {
	t.Helper()
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	if _, err := ffs.Format(dsk, ffs.FormatParams{
		TotalBytes: 64 << 20, NInodes: 2048, JournalFrags: journalFrags,
	}); err != nil {
		t.Fatal(err)
	}
	drv := dev.New(eng, dsk, dev.Config{Mode: dev.ModeChains})
	cpu := &sim.CPU{}
	c := cache.New(eng, drv, cpu, cache.Config{})
	r := &rig{eng: eng, dsk: dsk, drv: drv, c: c}
	var err error
	eng.Spawn("mount", func(p *sim.Proc) {
		r.fs, err = ffs.Mount(eng, cpu, c, ord, ffs.Config{Costs: costs}, p)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestJournalWrapReclaimAndBackpressure churns a journal region sized for
// only a handful of transactions: the writer must wrap, the durable header
// must advance (synchronous rewrites), and — with no syncer retiring home
// buffers — the log must apply backpressure by forcing checkpoint flushes.
// Afterwards the on-disk header must decode and point at a live tail.
func TestJournalWrapReclaimAndBackpressure(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 24)
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("f%d", i)
			ino, err := r.fs.Create(p, ffs.RootIno, name)
			if err != nil {
				t.Fatal(err)
			}
			r.fs.WriteAt(p, ino, 0, make([]byte, 1024))
			if i%2 == 0 {
				if err := r.fs.Unlink(p, ffs.RootIno, name); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
	})
	if j.Txns == 0 || j.Wraps == 0 {
		t.Fatalf("churn produced %d txns, %d wraps; the 24-frag region must wrap", j.Txns, j.Wraps)
	}
	if j.Flushes == 0 {
		t.Error("no checkpoint flushes: log backpressure never engaged with no syncer running")
	}
	if j.HeaderWrites == 0 {
		t.Error("durable header never rewritten despite reclaimed space being reused")
	}
	sb := r.fs.Superblock()
	hdr, ok := jlog.DecodeHeader(r.dsk.Image()[int64(sb.JournalStart)*ffs.FragSize:])
	if !ok {
		t.Fatal("on-disk journal header does not decode after churn")
	}
	// TailOff == JournalFrags is the legal empty-log state with the head
	// parked at the region end (replay's wrap fallback resumes at 1).
	if hdr.TailOff < 1 || hdr.TailOff > sb.JournalFrags {
		t.Fatalf("durable tail offset %d outside region (1..%d)", hdr.TailOff, sb.JournalFrags)
	}
}

// logTxns walks the journal region on the media from region offset 1 and
// returns the home runs of every well-formed transaction found, in log
// order, stopping at the first fragment that is not the begin record of the
// next sequence number (a lap that has not wrapped leaves exactly the
// submitted transactions there).
func logTxns(t *testing.T, r *rig) [][]jlog.HomeRun {
	t.Helper()
	sb := r.fs.Superblock()
	region := r.dsk.Image()[int64(sb.JournalStart)*ffs.FragSize : int64(sb.JournalStart+sb.JournalFrags)*ffs.FragSize]
	var txns [][]jlog.HomeRun
	for off := int32(1); off+2 <= sb.JournalFrags; {
		seq, pf, homes, ok := jlog.DecodeBegin(region[int64(off)*ffs.FragSize:], nil)
		if !ok || seq != uint64(len(txns)+1) {
			break
		}
		cseq, cpf, _, ok := jlog.DecodeCommit(region[int64(off+1+pf)*ffs.FragSize:])
		if !ok || cseq != seq || cpf != pf {
			t.Fatalf("txn %d at offset %d has no matching commit record", seq, off)
		}
		txns = append(txns, homes)
		off += jlog.TxnFrags(pf)
	}
	return txns
}

// TestJournalGroupCommit: journaling calls made while a log write is in
// flight gather in the one open transaction, and a buffer journaled again
// overwrites its slot. A burst of creates in one directory journals the
// same inode block and directory block once per create; the first call
// finds the log idle and commits alone, everything behind it must reach
// the log as one transaction holding each buffer once.
func TestJournalGroupCommit(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	const creates = 6
	var warm int
	r.run(t, func(p *sim.Proc) {
		// Warm the cache so the burst runs at CPU speed, well inside one
		// log write.
		if _, err := r.fs.Create(p, ffs.RootIno, "warm"); err != nil {
			t.Fatal(err)
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
		warm = int(j.Txns)
		for i := 0; i < creates; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("g%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
	})
	txns := logTxns(t, r)
	if int64(len(txns)) != j.Txns {
		t.Fatalf("log holds %d transactions, scheme counted %d", len(txns), j.Txns)
	}
	txns = txns[warm:]
	// Each create journals twice (inode block, directory block): 12 calls.
	if len(txns) != 2 {
		t.Fatalf("%d journaling calls made %d transactions, want 2 (one alone, the rest behind it)", 2*creates, len(txns))
	}
	if len(txns[0]) != 1 {
		t.Fatalf("first transaction holds %d buffers, want the 1 that found the log idle", len(txns[0]))
	}
	seen := map[int64]bool{}
	for _, h := range txns[1] {
		if seen[h.Frag] {
			t.Fatalf("fragment %d occupies two slots of one transaction: %v", h.Frag, txns[1])
		}
		seen[h.Frag] = true
	}
	if len(txns[1]) != 2 {
		t.Fatalf("group transaction holds %v, want the inode block and the directory block once each", txns[1])
	}
}

// submitLog records the driver's submissions for the home-write tests.
type submitLog struct {
	lbns []int64
	ids  []uint64
}

func (s *submitLog) RequestSubmitted(r *dev.Request, _ []uint64) {
	s.lbns = append(s.lbns, r.LBN)
	s.ids = append(s.ids, r.ID)
}
func (s *submitLog) RequestsCompleted([]uint64, sim.Time) {}

// TestJournalHomeWriteForcesCommit: a home write of a buffer that sits in
// the open transaction must first submit that transaction and then wait
// for it — the dependency has to name a request that exists, because the
// driver only honours dependencies on pending requests.
func TestJournalHomeWriteForcesCommit(t *testing.T) {
	j := ordering.NewJournal()
	r := newJournaledRig(t, j, 256)
	sb := r.fs.Superblock()
	r.run(t, func(p *sim.Proc) {
		a, err := r.fs.Create(p, ffs.RootIno, "a") // commits alone: the log is idle
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.fs.Create(p, ffs.RootIno, "b"); err != nil { // gathers behind it
			t.Fatal(err)
		}
		if j.Txns != 1 {
			t.Fatalf("%d transactions submitted before the home write, want 1 in flight and 1 open", j.Txns)
		}
		frag, _ := sb.InodeFrag(a)
		ib := r.c.Lookup(int64(frag))
		if ib == nil || !ib.Dirty {
			t.Fatal("inode block not resident and dirty")
		}
		var subs submitLog
		r.drv.SetObserver(&subs)
		req := r.c.Bawrite(p, ib)
		r.drv.SetObserver(nil)
		if j.Txns != 2 {
			t.Fatalf("home write of a member left the open transaction open (%d submitted)", j.Txns)
		}
		logLo := int64(sb.JournalStart) * cache.SectorsPerFrag
		logHi := int64(sb.JournalStart+sb.JournalFrags) * cache.SectorsPerFrag
		if len(subs.lbns) != 2 || subs.lbns[0] < logLo || subs.lbns[0] >= logHi || subs.lbns[1] != req.LBN {
			t.Fatalf("submissions at LBNs %v, want the log write and then the home write at %d", subs.lbns, req.LBN)
		}
		commit := req.ID - 1 // the log write submitted just before it
		found := false
		for _, id := range req.DependsOn {
			found = found || id == commit
		}
		if !found {
			t.Fatalf("home write depends on %v, want the forced commit %d among them", req.DependsOn, commit)
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
	})
}

// TestJournalOverflowSplits: an open transaction that reaches jlog.MaxHomes
// buffers or a quarter of the region is submitted and a new one opened; the
// pieces carry consecutive sequence numbers and replay in that order even
// where the log wrapped between them.
func TestJournalOverflowSplits(t *testing.T) {
	t.Run("maxhomes", func(t *testing.T) {
		// Every mkdir journals a fresh one-fragment directory block; with a
		// CPU a hundred times the paper's, eight users put more distinct
		// buffers behind one log write than one begin record can name.
		j := ordering.NewJournal()
		r := newJournaledRigCosts(t, j, 2048, ffs.Costs{Syscall: 2 * sim.Microsecond, DirModify: 4 * sim.Microsecond,
			InodeOp: sim.Microsecond, AllocOp: 5 * sim.Microsecond})
		var parents [8]ffs.Ino
		r.run(t, func(p *sim.Proc) {
			for u := range parents {
				var err error
				if parents[u], err = r.fs.Mkdir(p, ffs.RootIno, fmt.Sprintf("u%d", u)); err != nil {
					t.Fatal(err)
				}
			}
			r.fs.Sync(p)
			r.drv.WaitIdle(p)
		})
		for u := range parents {
			u := u
			r.eng.Spawn(fmt.Sprintf("user%d", u), func(p *sim.Proc) {
				for i := 0; i < 16; i++ {
					if _, err := r.fs.Mkdir(p, parents[u], fmt.Sprintf("d%d", i)); err != nil {
						t.Error(err)
					}
				}
			})
		}
		r.eng.Run()
		r.run(t, func(p *sim.Proc) {
			r.fs.Sync(p)
			r.drv.WaitIdle(p)
		})
		txns := logTxns(t, r)
		if int64(len(txns)) != j.Txns || j.Wraps != 0 {
			t.Fatalf("log holds %d transactions, scheme counted %d (%d wraps)", len(txns), j.Txns, j.Wraps)
		}
		full := 0
		for _, homes := range txns {
			if len(homes) == jlog.MaxHomes {
				full++
			}
		}
		if full == 0 {
			t.Fatalf("none of %d transactions filled its begin record", len(txns))
		}
	})
	t.Run("sizecap-across-wrap", func(t *testing.T) {
		j := ordering.NewJournal()
		r := newJournaledRig(t, j, 48) // a transaction may take 11 fragments
		for u := 0; u < 4; u++ {
			u := u
			r.eng.Spawn(fmt.Sprintf("user%d", u), func(p *sim.Proc) {
				dir, err := r.fs.Mkdir(p, ffs.RootIno, fmt.Sprintf("u%d", u))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 12; i++ {
					if _, err := r.fs.Create(p, dir, fmt.Sprintf("f%d", i)); err != nil {
						t.Error(err)
					}
				}
			})
		}
		r.eng.Run()
		r.run(t, func(p *sim.Proc) {
			r.fs.Sync(p)
			r.drv.WaitIdle(p)
		})
		if j.Wraps == 0 {
			t.Fatalf("%d transactions never wrapped the 48-fragment region", j.Txns)
		}
		// Every transaction from the durable tail to the head is still in the
		// log, so replaying the quiescent image must chain through all of
		// them, wraps included.
		sb := r.fs.Superblock()
		img := r.dsk.CloneImage()
		hdr, ok := jlog.DecodeHeader(img[int64(sb.JournalStart)*ffs.FragSize:])
		if !ok {
			t.Fatal("journal header does not decode")
		}
		want := j.Txns - int64(hdr.TailSeq) + 1
		if got := jlog.Replay(img, sb.JournalStart, sb.JournalFrags); int64(got) != want {
			t.Fatalf("replayed %d transactions from tail seq %d, want %d (through seq %d)", got, hdr.TailSeq, want, j.Txns)
		}
	})
}

// TestJournalStartRequiresRegion pins the configuration error: mounting the
// journaling scheme on a file system formatted without a journal region
// must panic with a message naming the fix, not corrupt data silently.
func TestJournalStartRequiresRegion(t *testing.T) {
	r := newRig(t, ordering.NewChains(), dev.Config{Mode: dev.ModeChains}, cache.Config{}, ffs.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Journal.Start accepted a file system with no journal region")
		}
	}()
	ordering.NewJournal().Start(r.fs)
}

// TestAsyncNotificationsDrain: every registered naming operation must
// eventually receive its durability notification once the media catches
// up, notices must carry the right kinds, and the in-flight window must
// be empty after a full drain.
func TestAsyncNotificationsDrain(t *testing.T) {
	a := ordering.NewAsync(8, 5*sim.Millisecond)
	notices := a.KeepNotices()
	r := newJournaledRig(t, a, 0)
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := r.fs.Unlink(p, ffs.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
	})
	if a.Registered == 0 {
		t.Fatal("no operations registered")
	}
	if a.Notified != a.Registered {
		t.Fatalf("%d of %d registered ops notified after full drain", a.Notified, a.Registered)
	}
	if got := a.PendingOps(); got != 0 {
		t.Fatalf("%d ops still in the window after drain", got)
	}
	adds, removes := 0, 0
	for _, n := range *notices {
		if n.NotifiedAt < n.RegisteredAt {
			t.Fatalf("notice %d delivered before registration (%v < %v)", n.ID, n.NotifiedAt, n.RegisteredAt)
		}
		switch n.Kind {
		case ordering.NoticeAdd:
			adds++
		case ordering.NoticeRemove:
			removes++
		}
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("notice kinds missing: %d adds, %d removes", adds, removes)
	}
	if got := len(*notices); got != int(a.Notified) {
		t.Fatalf("%d notifications delivered, %d counted", got, a.Notified)
	}
}

// TestAsyncThrottleEngages: a CPU-speed unlink burst against one directory
// block with a one-op window and a flusher interval too long to help —
// every second registration overflows the window, so the admission
// throttle must persist the oldest waiter synchronously, and the window
// must never exceed its cap after a registration returns.
func TestAsyncThrottleEngages(t *testing.T) {
	a := ordering.NewAsync(1, 500*sim.Millisecond)
	r := newJournaledRig(t, a, 0)
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("t%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		r.fs.Sync(p)
		base := r.c.SyncWrites
		for i := 0; i < 8; i++ {
			if err := r.fs.Unlink(p, ffs.RootIno, fmt.Sprintf("t%d", i)); err != nil {
				t.Fatal(err)
			}
			if got := a.PendingOps(); got > 1 {
				t.Fatalf("window holds %d ops after registration, cap is 1", got)
			}
		}
		if r.c.SyncWrites == base {
			t.Error("throttle never issued a synchronous write during the unlink burst")
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
	})
	if a.Notified != a.Registered {
		t.Fatalf("%d of %d ops notified after drain", a.Notified, a.Registered)
	}
	if ordering.NoticeAdd.String() != "add" || ordering.NoticeRemove.String() != "remove" {
		t.Fatal("notice kind strings wrong")
	}
}

// TestAsyncWindowBoundsInFlight: with a tiny window the admission throttle
// must keep the post-registration window at the cap, and the group-commit
// flusher must have swept at least once under sustained churn.
func TestAsyncWindowBoundsInFlight(t *testing.T) {
	const window = 2
	a := ordering.NewAsync(window, 5*sim.Millisecond)
	r := newJournaledRig(t, a, 0)
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			if _, err := r.fs.Create(p, ffs.RootIno, fmt.Sprintf("w%d", i)); err != nil {
				t.Fatal(err)
			}
			if got := a.PendingOps(); got > window {
				t.Fatalf("window holds %d ops after registration, cap is %d", got, window)
			}
		}
		r.fs.Sync(p)
		r.drv.WaitIdle(p)
	})
	if a.PeakPending > window+1 {
		t.Fatalf("peak pending %d; the throttle admits at most one over the cap transiently", a.PeakPending)
	}
	if a.GroupFlushes == 0 {
		t.Error("group-commit flusher never swept during sustained churn")
	}
	if a.Notified != a.Registered {
		t.Fatalf("%d of %d ops notified", a.Notified, a.Registered)
	}
}
