package dev

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// scanPick is C-LOOK by definition, the queue scan that pickCLOOK replaced:
// of the eligible requests, the one with the smallest LBN at or after head,
// else the one with the smallest LBN — the first in queue of several at that
// LBN, by the strict < comparisons.
func scanPick(queue []*Request, head int64) *Request {
	var ahead, first *Request
	for _, r := range queue {
		if !r.eligible() {
			continue
		}
		if first == nil || r.LBN < first.LBN {
			first = r
		}
		if r.LBN >= head && (ahead == nil || r.LBN < ahead.LBN) {
			ahead = r
		}
	}
	if ahead != nil {
		return ahead
	}
	return first
}

func brief(r *Request) string {
	if r == nil {
		return "nothing"
	}
	return fmt.Sprintf("request %d at LBN %d", r.ID, r.LBN)
}

// shadowQueue is the driver's queue as an observer sees it change: a
// submitted request joins at the tail, a dispatched batch leaves (the
// dispatch hook tells it which), and the members of a failed batch that did not fail themselves
// — the survivors of a split read batch — rejoin at the tail in batch order.
type shadowQueue struct {
	queue, inflight []*Request
	requeued        int
}

func (s *shadowQueue) RequestSubmitted(r *Request, _ []uint64) { s.queue = append(s.queue, r) }
func (s *shadowQueue) RequestsCompleted([]uint64, sim.Time)    { s.inflight = nil }
func (s *shadowQueue) BatchTorn([]uint64, int, sim.Time)       {}

func (s *shadowQueue) RequestsFailed(ids []uint64, _ sim.Time) {
	for _, r := range s.inflight {
		if !slices.Contains(ids, r.ID) {
			s.queue = append(s.queue, r)
			s.requeued++
		}
	}
	s.inflight = nil
}

// TestCLOOKMatchesScanOracle is the differential test of the ready-bucket
// index: at every kick, under all eight configurations and with read batches
// splitting and requeueing their survivors underneath, the request the
// driver dispatches first must be the one the scan picks over the shadow
// queue, and the driver's own queue must be the shadow's, in order.
func TestCLOOKMatchesScanOracle(t *testing.T) {
	ties := 0 // picks with another eligible request at the same LBN
	for _, cfg := range everyConfig() {
		t.Run(configName(cfg), func(t *testing.T) {
			var kicks, wraps, requeued int
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eng, dsk, drv := newRig(cfg)
				if seed%2 == 0 {
					dsk.SetFaults(flakyJudge{rng}, 0)
				}
				s := &shadowQueue{}
				drv.SetObserver(s)
				drv.dispatchHook = func(batch []*Request) {
					want, got := scanPick(s.queue, drv.headLBN), batch[0]
					if got != want {
						t.Fatalf("seed %d kick %d: head %d, picked %s, the scan picks %s", seed, kicks, drv.headLBN, brief(got), brief(want))
					}
					if q := queued(drv); !slices.Equal(q, s.queue) {
						t.Fatalf("seed %d kick %d: queue of %d differs from the shadow's %d", seed, kicks, len(q), len(s.queue))
					}
					kicks++
					if want.LBN < drv.headLBN {
						wraps++
					}
					if slices.ContainsFunc(s.queue, func(r *Request) bool {
						return r != want && r.LBN == want.LBN && r.eligible()
					}) {
						ties++
					}
					s.queue = slices.DeleteFunc(s.queue, func(r *Request) bool { return slices.Contains(batch, r) })
					s.inflight = slices.Clone(batch)
				}
				crowdedStream(eng, dsk, drv, rng)
				if len(s.queue) != 0 || drv.Busy() {
					t.Fatalf("seed %d: %d requests never dispatched", seed, len(s.queue))
				}
				for w, word := range drv.ready {
					if word != 0 {
						t.Fatalf("seed %d: ready set not empty at idle (word %d = %#x)", seed, w, word)
					}
				}
				requeued += s.requeued
			}
			if wraps == 0 || requeued == 0 {
				t.Fatalf("streams too tame to test anything: %d kicks, %d wraps, %d requeued", kicks, wraps, requeued)
			}
		})
	}
	if ties == 0 {
		t.Fatal("no pick had a rival at its LBN: the tie rule went untested")
	}
}

// TestCLOOKTieGoesToQueuePosition: of two eligible reads at one LBN, C-LOOK
// takes the one queued first, which is not the one submitted first once a
// split read batch has put its survivor back at the tail.
func TestCLOOKTieGoesToQueuePosition(t *testing.T) {
	// Call 1: the blocker, clean. Call 2: the batch a+b, bad sector under b.
	j := &scriptJudge{script: []fault.Outcome{{}, {Kind: fault.BadSector, Sector: 505}}}
	eng, _, drv := newFaultRig(Config{Mode: ModeIgnore}, j, 0)
	blocker := drv.Submit(wreq(100, 1, false)) // keeps the disk busy while a and b queue
	a := drv.Submit(rreq(500, 4))
	b := drv.Submit(rreq(504, 4))
	eng.RunWhile(func() bool { return !blocker.Done.Fired() })
	if len(drv.inflight) != 2 {
		t.Fatalf("setup: %d requests in flight, want the batch a+b", len(drv.inflight))
	}
	x := drv.Submit(rreq(500, 4)) // a's sectors, queued ahead of a's return
	eng.Run()
	if b.Err != ErrBadSector || a.Err != nil || x.Err != nil {
		t.Fatalf("setup: errs a %v, b %v, x %v; want only b failed", a.Err, b.Err, x.Err)
	}
	if x.Done.FiredAt >= a.Done.FiredAt {
		t.Fatalf("the requeued read (ID %d) completed at %v, before or with the read queued ahead of it (ID %d) at %v",
			a.ID, a.Done.FiredAt, x.ID, x.Done.FiredAt)
	}
}

// scanBuckets is the sector index by definition, the scan of the pending
// set: every pending request listed in each 16-sector bucket it touches.
func scanBuckets(pending map[uint64]*Request) map[int64][]*Request {
	want := map[int64][]*Request{}
	for _, r := range pending {
		for k, hi := r.buckets(); k <= hi; k++ {
			want[k] = append(want[k], r)
		}
	}
	return want
}

// checkSectorIndex reports the first difference between the driver's
// sector table and the scan of its pending set.
func checkSectorIndex(d *Driver) error {
	want := scanBuckets(d.pending)
	got := 0
	for k, s := range d.bySector.All() {
		if len(*s) == 0 {
			if *s != nil {
				return fmt.Errorf("bucket %d is empty but not nil", k)
			}
			continue
		}
		got++
		w := want[k]
		byID := func(a, b *Request) int { return cmp.Compare(a.ID, b.ID) }
		g := slices.SortedFunc(slices.Values(*s), byID)
		slices.SortFunc(w, byID)
		if !slices.Equal(g, w) {
			return fmt.Errorf("bucket %d holds %d requests, the scan %d", k, len(g), len(w))
		}
	}
	if got != len(want) {
		return fmt.Errorf("%d non-empty buckets, the scan touches %d", got, len(want))
	}
	return nil
}

// sectorIndexObserver checks the sector table at every submission, before
// the new request is indexed.
type sectorIndexObserver struct {
	shadowQueue
	d   *Driver
	err error
}

func (o *sectorIndexObserver) RequestSubmitted(r *Request, preds []uint64) {
	if o.err == nil {
		o.err = checkSectorIndex(o.d)
	}
}

// TestSectorTableMatchesPendingScan is the differential test of the
// driver's first-touch sector table: under all eight configurations, with
// requests spanning buckets and pages of the table, batches failing and
// splitting, at every submission and every dispatch, each bucket must hold
// exactly the pending requests that touch it; at idle every page of the
// table has been given back.
func TestSectorTableMatchesPendingScan(t *testing.T) {
	for _, cfg := range everyConfig() {
		t.Run(configName(cfg), func(t *testing.T) {
			checks := 0
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eng, dsk, drv := newRig(cfg)
				if seed%2 == 0 {
					dsk.SetFaults(flakyJudge{rng}, 0)
				}
				o := &sectorIndexObserver{d: drv}
				drv.SetObserver(o)
				drv.dispatchHook = func([]*Request) {
					if o.err == nil {
						o.err = checkSectorIndex(drv)
					}
					checks++
				}
				crowdedStream(eng, dsk, drv, rng)
				if o.err != nil {
					t.Fatalf("seed %d: %v", seed, o.err)
				}
				for k := range drv.bySector.All() {
					t.Fatalf("seed %d: idle driver keeps the table page of bucket %d", seed, k)
				}
			}
			if checks < 100 {
				t.Fatalf("only %d dispatches checked", checks)
			}
		})
	}
}
