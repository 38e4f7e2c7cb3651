package crashmc

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
)

// job is one crash state handed to the checker pool: a shared committed
// snapshot plus the pending-write deltas hypothesized durable.
type job struct {
	seq int64
	img []byte // committed image for the instant; read-only
	// imgVer identifies img: it bumps whenever the explorer snapshots a new
	// committed image, so workers can key their cached fsck Baselines on it
	// (jobs sharing a version share the identical base bytes).
	imgVer    uint64
	subset    []*node
	partial   *node
	psec      int
	instant   int
	completed int // writes durably completed at the instant
}

// explorer walks the recorded timeline and generates crash states.
type explorer struct {
	rec *Recorder
	cfg Config

	jobs      chan job
	pool      *checkerPool
	committed []byte
	imgVer    uint64
	shared    bool // committed is referenced by emitted jobs
	doneSet   map[uint64]struct{}
	doneOrder []*node // completed writes, completion order
	pending   []*node // pending writes, submission (ID) order
	instant   int
	explored  int64
	stopped   bool // budget exhausted

	// Per-sector signature pre-filter. A crash image is exactly its
	// per-sector content, so its signature is the XOR over all written
	// sectors of mix(sector, content fingerprint) — XOR makes the
	// signature incrementally maintainable: doneXor tracks the committed
	// image, and a candidate adjusts it by the sectors its subset and
	// partial would overwrite (newest writer per sector wins, as the
	// driver's conflict rule guarantees overlapping writes land in ID
	// order). Candidates whose signature was already seen are duplicate
	// images — across subsets AND across crash instants — and are skipped
	// before paying for a full-image copy and hash; under the async
	// schemes most candidates collapse this way.
	// doneH/doneOK are sector-indexed (the image size is fixed): the
	// committed content fingerprint of every write-reachable sector.
	// seenSec is the per-candidate claimed-generation stamp. Dense slices,
	// not maps — signature runs once per emitted candidate and the map
	// hashing showed up hard in sweep profiles.
	doneH      []uint64
	doneOK     []bool
	doneXor    uint64
	seenSec    []int
	gen        int
	sigSeen    map[uint64]struct{}
	preDeduped int64
}

// mix spreads a (sector, content fingerprint) pair into the XOR signature
// (splitmix64-style finalizer).
func mix(s int64, h uint64) uint64 {
	x := uint64(s)*0x9E3779B97F4A7C15 ^ h
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}

// Explore enumerates the crash-state space of the recorded run and checks
// every distinct image. Call it only after the simulation has stopped.
func (r *Recorder) Explore(cfg Config) *Result {
	cfg.setDefaults(runtime.GOMAXPROCS(0))
	start := time.Now()

	x := &explorer{
		rec:       r,
		cfg:       cfg,
		jobs:      make(chan job, 4*cfg.Workers),
		committed: append([]byte(nil), r.base...),
		imgVer:    1,
		doneSet:   make(map[uint64]struct{}),
		sigSeen:   make(map[uint64]struct{}),
	}
	nsec := int64(len(r.base)) / disk.SectorSize
	x.doneH = make([]uint64, nsec)
	x.doneOK = make([]bool, nsec)
	x.seenSec = make([]int, nsec)
	// Seed the signature with the base image's fingerprint for every sector
	// a recorded write can touch. Without this, a write carrying bytes
	// identical to what the base already holds would change the signature
	// while leaving the image unchanged — two content-equal states with
	// different signatures, breaking the signature's defining property of
	// being a pure function of image content.
	for _, n := range r.nodes {
		if !n.write {
			continue
		}
		for i := 0; i < n.count; i++ {
			s := n.lbn + int64(i)
			if x.doneOK[s] {
				continue
			}
			h := maphash.Bytes(r.hseed, r.base[s*disk.SectorSize:(s+1)*disk.SectorSize])
			x.doneH[s] = h
			x.doneOK[s] = true
			x.doneXor ^= mix(s, h)
		}
	}
	pool := newCheckerPool(cfg)
	x.pool = pool
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.run(x.jobs)
		}()
	}

	if cfg.From <= 0 {
		x.emitInstant() // the pre-workload image
	}
	for _, ev := range r.events {
		if x.stopped {
			break
		}
		switch {
		case ev.submit != 0:
			n := r.nodes[ev.submit]
			if n == nil || !n.write {
				continue // reads change neither media nor legal subsets
			}
			x.pending = append(x.pending, n)
		case ev.torn != nil:
			// A faulted batch landed a sector prefix: the media changed but
			// every request stays pending (the driver retries or fails them
			// later). The committed image gains the prefix — a new crash
			// atom — while the legal-subset machinery is untouched.
			x.unshare()
			left := ev.tornSec
			for _, id := range ev.torn {
				if left <= 0 {
					break
				}
				n := r.nodes[id]
				if n == nil || !n.write {
					continue
				}
				cnt := n.count
				if cnt > left {
					cnt = left
				}
				n.applyPrefix(x.committed, cnt)
				for i := 0; i < cnt; i++ {
					x.swapSector(n.lbn+int64(i), n.sech[i])
				}
				// A synthetic done entry keeps shrink's base+doneOrder
				// replay byte-exact for faulted timelines.
				x.doneOrder = append(x.doneOrder, &node{
					id: n.id, write: true, lbn: n.lbn, count: cnt,
					data: n.data[:cnt*disk.SectorSize], sech: n.sech[:cnt],
				})
				left -= n.count
			}
		case ev.failed != nil:
			// Errored requests resolve without their data landing: they
			// leave the pending set and stop constraining successors (the
			// driver unblocks dependents of a failed request), so doneSet
			// here means "resolved", not "durable".
			for _, id := range ev.failed {
				x.removePending(id)
				x.doneSet[id] = struct{}{}
			}
		default:
			x.unshare()
			for _, id := range ev.complete {
				n := r.nodes[id]
				if n == nil || !n.write {
					continue
				}
				n.apply(x.committed)
				for i := 0; i < n.count; i++ {
					x.swapSector(n.lbn+int64(i), n.sech[i])
				}
				x.doneSet[id] = struct{}{}
				x.doneOrder = append(x.doneOrder, n)
				x.removePending(id)
			}
		}
		x.instant++
		if x.instant >= cfg.From {
			x.emitInstant()
		}
	}
	close(x.jobs)
	wg.Wait()

	res := &Result{
		Stats: Stats{
			Requests:       len(r.nodes),
			Writes:         r.writes,
			Instants:       x.instant + 1,
			Torn:           r.torn,
			Failed:         r.failed,
			Explored:       x.explored,
			Deduped:        x.preDeduped,
			Checked:        pool.checked.Load(),
			Violating:      pool.violating.Load(),
			BaselineBuilds: pool.builds.Load(),
			Incremental:    pool.incremental,
		},
		Violations: pool.takeViolations(),
	}
	res.Stats.ElapsedSec = time.Since(start).Seconds()
	res.Stats.FinalizeThroughput()
	if cfg.Shrink && len(res.Violations) > 0 {
		res.Repro = r.shrink(res.Violations[0], cfg, x.doneOrder)
	}
	return res
}

// signature computes the candidate's image signature without materializing
// it: start from the committed image's XOR and swap in the sectors the
// hypothesized writes would overwrite. The partial is always the newest
// writer over its range (the enumerator never pairs it with a dependent),
// then the subset newest-first; the first claimant of each sector wins,
// exactly matching what apply in ID order would leave on the media. Equal
// signatures mean equal images (modulo 64-bit collisions, the same bet the
// content dedup makes); distinct images always get distinct signatures.
func (x *explorer) signature(subset []*node, partial *node, psec int) uint64 {
	x.gen++
	sig := x.doneXor
	claim := func(n *node, count int) {
		for i := 0; i < count; i++ {
			s := n.lbn + int64(i)
			if x.seenSec[s] == x.gen {
				continue // a newer writer already claimed this sector
			}
			x.seenSec[s] = x.gen
			if x.doneOK[s] {
				sig ^= mix(s, x.doneH[s])
			}
			sig ^= mix(s, n.sech[i])
		}
	}
	if partial != nil {
		claim(partial, psec)
	}
	for i := len(subset) - 1; i >= 0; i-- {
		claim(subset[i], subset[i].count)
	}
	return sig
}

// unshare gives the explorer a private committed image before mutating it
// (emitted jobs hold references to the previous snapshot). The version
// bump invalidates workers' cached baselines; a buffer mutated while
// unshared keeps its version because no job (and so no baseline) has seen
// it yet.
func (x *explorer) unshare() {
	if x.shared {
		x.committed = append([]byte(nil), x.committed...)
		x.imgVer++
		x.shared = false
	}
}

// swapSector replaces sector s's contribution to the committed signature.
func (x *explorer) swapSector(s int64, h uint64) {
	if x.doneOK[s] {
		x.doneXor ^= mix(s, x.doneH[s])
	}
	x.doneXor ^= mix(s, h)
	x.doneH[s] = h
	x.doneOK[s] = true
}

func (x *explorer) removePending(id uint64) {
	for i, n := range x.pending {
		if n.id == id {
			x.pending = append(x.pending[:i], x.pending[i+1:]...)
			return
		}
	}
}

// emitInstant generates the crash states of the current instant, in a
// deterministic order designed to surface violations early under a budget:
// the as-executed image first, then the all-pending image, then every
// leave-one-out subset (drop one write plus its dependents — the shape of
// a missed-ordering bug), then a DFS over the remaining legal subsets.
func (x *explorer) emitInstant() {
	emitted, attempts := 0, 0
	attemptCap := 32 * x.cfg.PerInstant
	emit := func(subset []*node, partial *node, psec int) bool {
		if x.stopped || emitted >= x.cfg.PerInstant || attempts >= attemptCap {
			return false
		}
		if x.explored >= int64(x.cfg.Budget) {
			x.stopped = true
			return false
		}
		attempts++
		sig := x.signature(subset, partial, psec)
		if _, dup := x.sigSeen[sig]; dup {
			x.preDeduped++
			return true // duplicate image: skip cheaply, keep enumerating
		}
		x.sigSeen[sig] = struct{}{}
		x.explored++
		emitted++
		x.shared = true
		x.jobs <- job{
			seq:       x.explored,
			img:       x.committed,
			imgVer:    x.imgVer,
			subset:    x.pool.getSubset(subset),
			partial:   partial,
			psec:      psec,
			instant:   x.instant,
			completed: len(x.doneOrder),
		}
		return true
	}
	// eligible reports whether n's outstanding predecessors are all in
	// `in` (nil means: none may be outstanding).
	eligible := func(n *node, in map[uint64]struct{}) bool {
		for _, p := range n.effPreds {
			if _, done := x.doneSet[p]; done {
				continue
			}
			if in == nil {
				return false
			}
			if _, ok := in[p]; !ok {
				return false
			}
		}
		return true
	}
	emitPartials := func(subset []*node, in map[uint64]struct{}, w *node) bool {
		if !eligible(w, in) {
			return true
		}
		for s := 1; s < w.count; s++ {
			if !emit(subset, w, s) {
				return false
			}
		}
		return true
	}

	// 1. The as-executed crash image: completed writes only — plus the
	// sector prefixes of every write that could have been mid-transfer.
	emit(nil, nil, 0)
	for _, n := range x.pending {
		if !emitPartials(nil, nil, n) {
			return
		}
	}
	if len(x.pending) == 0 {
		return
	}

	// 2. Everything pending durable (always barrier-closed).
	emit(x.pending, nil, 0)

	// 3. Leave-one-out: drop each write plus its transitive dependents.
	idx := make(map[uint64]int, len(x.pending))
	for i, n := range x.pending {
		idx[n.id] = i
	}
	children := make([][]int, len(x.pending))
	for i, n := range x.pending {
		for _, p := range n.effPreds {
			if pi, ok := idx[p]; ok {
				children[pi] = append(children[pi], i)
			}
		}
	}
	closure := func(i int) map[int]struct{} {
		drop := map[int]struct{}{i: {}}
		queue := []int{i}
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			for _, c := range children[j] {
				if _, ok := drop[c]; !ok {
					drop[c] = struct{}{}
					queue = append(queue, c)
				}
			}
		}
		return drop
	}
	for i := range x.pending {
		drop := closure(i)
		if len(drop) == len(x.pending) {
			continue // equals the as-executed state
		}
		subset := make([]*node, 0, len(x.pending)-len(drop))
		in := make(map[uint64]struct{})
		for j, n := range x.pending {
			if _, gone := drop[j]; !gone {
				subset = append(subset, n)
				in[n.id] = struct{}{}
			}
		}
		if !emit(subset, nil, 0) {
			return
		}
		// The dropped write caught mid-transfer over this subset.
		if !emitPartials(subset, in, x.pending[i]) {
			return
		}
	}

	// 4. DFS over the remaining barrier-closed subsets, include-first.
	chosen := make(map[uint64]struct{})
	var cur []*node
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == len(x.pending) {
			return true
		}
		n := x.pending[i]
		if eligible(n, chosen) {
			chosen[n.id] = struct{}{}
			cur = append(cur, n)
			ok := emit(cur, nil, 0)
			if ok {
				for s := 1; s < n.count && ok; s++ {
					ok = emit(cur[:len(cur)-1], n, s)
				}
			}
			if ok {
				ok = dfs(i + 1)
			}
			delete(chosen, n.id)
			cur = cur[:len(cur)-1]
			if !ok {
				return false
			}
		}
		return dfs(i + 1)
	}
	dfs(0)
}

// checkerPool holds the state shared by the image-checking workers. The
// explorer's XOR signature already deduplicates by image content (every
// emitted job is a distinct image modulo 64-bit collisions — the same bet
// the old full-image hash made), so the pool just checks what it is
// handed: each worker assembles the job as a copy-on-write overlay and
// runs fsck through it, never materializing the image.
//
// By default checking is incremental: the first worker to see a committed-
// image version builds a shared fsck.Baseline for it (once per version),
// and every worker replays candidate overlays against it through a
// per-worker DeltaChecker — re-deriving only the state the delta's dirty
// sectors reach. The differential oracle (incremental_test.go) pins the
// reports bit-identical to the full walks cfg.Recover needs.
type checkerPool struct {
	cfg         Config
	incremental bool

	checked   atomic.Int64
	violating atomic.Int64
	builds    atomic.Int64

	// Baselines shared across workers, keyed by committed-image version.
	// Entries far behind the newest version are pruned (a straggler worker
	// simply rebuilds); sync.Once makes each version's build happen once.
	blmu      sync.Mutex
	baselines map[uint64]*baselineEntry

	// subsets free-lists the job subset slices (dev's request-pool idiom):
	// the single-threaded explorer copies each emitted subset into a slice
	// drawn here, and workers return it after recording, so steady-state
	// emission stops allocating.
	subsets sync.Pool

	vmu        sync.Mutex
	violations []Violation
}

type baselineEntry struct {
	once sync.Once
	bl   *fsck.Baseline
}

func newCheckerPool(cfg Config) *checkerPool {
	return &checkerPool{
		cfg: cfg,
		// Recovery (journal replay) rewrites arbitrary home fragments, so
		// candidates cannot be checked as deltas over a committed baseline.
		incremental: cfg.Recover == nil,
		baselines:   make(map[uint64]*baselineEntry),
	}
}

// getSubset copies subset into a pooled slice (nil for the empty subset,
// matching the historical job shape).
func (cp *checkerPool) getSubset(subset []*node) []*node {
	if len(subset) == 0 {
		return nil
	}
	var s []*node
	if v := cp.subsets.Get(); v != nil {
		s = (*v.(*[]*node))[:0]
	}
	return append(s, subset...)
}

func (cp *checkerPool) putSubset(s []*node) {
	if s == nil {
		return
	}
	for i := range s {
		s[i] = nil // drop node references while pooled
	}
	s = s[:0]
	cp.subsets.Put(&s)
}

// baseline returns the shared Baseline for one committed-image version,
// building it exactly once, on the calling worker; the others go on with
// jobs of the versions they hold and wait on the Once only if they need this
// one.
func (cp *checkerPool) baseline(ver uint64, img []byte) *fsck.Baseline {
	cp.blmu.Lock()
	e := cp.baselines[ver]
	if e == nil {
		e = &baselineEntry{}
		cp.baselines[ver] = e
		// In-flight jobs trail the newest emitted version by at most the
		// channel depth, so anything 64 versions back is settled.
		for v := range cp.baselines {
			if v+64 < ver {
				delete(cp.baselines, v)
			}
		}
	}
	cp.blmu.Unlock()
	e.once.Do(func() {
		cp.builds.Add(1)
		e.bl = fsck.NewBaseline(fsck.Bytes(img), 1)
	})
	return e.bl
}

func (cp *checkerPool) run(jobs <-chan job) {
	ov := &overlay{}
	var dc *fsck.DeltaChecker
	var dcVer uint64
	var scratch []byte // per-worker materialized image for cfg.Recover
	for j := range jobs {
		ov.load(&j)
		if cp.incremental {
			if dc == nil || dcVer != j.imgVer {
				bl := cp.baseline(j.imgVer, j.img)
				if dc == nil {
					dc = fsck.NewDeltaChecker(bl)
					dc.SkipDetails(true)
				} else {
					dc.Rebind(bl)
				}
				dcVer = j.imgVer
			}
			// Triage without formatting finding details — almost every
			// candidate's report is discarded. Only candidates that would
			// enter the retained set get a full formatted check, so the
			// recorded strings are identical to the full path's.
			if deltaViolates(dc, ov, cp.cfg.CheckContent, cp.cfg.ExtraCheck) {
				cp.violating.Add(1)
				if cp.wouldRetain(j.seq) {
					cp.record(j, checkImage(ov, cp.cfg.CheckContent, cp.cfg.ExtraCheck))
				}
			}
		} else {
			scratch = ov.materialize(scratch)
			cp.cfg.Recover(scratch)
			findings := checkImage(fsck.Bytes(scratch), cp.cfg.CheckContent, cp.cfg.ExtraCheck)
			if len(findings) != 0 {
				cp.violating.Add(1)
				cp.record(j, findings)
			}
		}
		cp.checked.Add(1)
		cp.putSubset(j.subset)
	}
}

// wouldRetain reports whether a violating candidate with this sequence
// number could enter the retained set. The retention bar (the highest seq
// currently kept, once the set is full) only ever tightens, so a false
// answer never becomes true later — skipping the formatted re-check on
// false is sound under any worker schedule.
func (cp *checkerPool) wouldRetain(seq int64) bool {
	cp.vmu.Lock()
	defer cp.vmu.Unlock()
	if len(cp.violations) < cp.cfg.MaxViolations {
		return true
	}
	for _, o := range cp.violations {
		if seq < o.Seq {
			return true
		}
	}
	return false
}

// record retains the violation, keeping the MaxViolations lowest sequence
// numbers so the retained set is deterministic under any worker schedule.
func (cp *checkerPool) record(j job, findings []string) {
	v := Violation{
		Seq:       j.seq,
		Instant:   j.instant,
		Completed: j.completed,
		Findings:  findings,
	}
	for _, n := range j.subset {
		v.Applied = append(v.Applied, WriteInfo{ID: n.id, LBN: n.lbn, Sectors: n.count})
	}
	if j.partial != nil {
		v.Partial = &WriteInfo{ID: j.partial.id, LBN: j.partial.lbn, Sectors: j.partial.count}
		v.PartialSectors = j.psec
	}
	cp.vmu.Lock()
	defer cp.vmu.Unlock()
	if len(cp.violations) < cp.cfg.MaxViolations {
		cp.violations = append(cp.violations, v)
		return
	}
	maxAt, maxSeq := -1, int64(-1)
	for i, o := range cp.violations {
		if o.Seq > maxSeq {
			maxAt, maxSeq = i, o.Seq
		}
	}
	if v.Seq < maxSeq {
		cp.violations[maxAt] = v
	}
}

func (cp *checkerPool) takeViolations() []Violation {
	cp.vmu.Lock()
	defer cp.vmu.Unlock()
	sort.Slice(cp.violations, func(i, j int) bool { return cp.violations[i].Seq < cp.violations[j].Seq })
	return cp.violations
}

// checkImage runs the fsck oracle over one image — materialized or
// overlay — and returns the rule violations as strings. A panic inside
// fsck (a corrupted superblock leading it somewhere unmapped) is itself
// reported as a violation rather than killing the sweep.
func checkImage(img fsck.Image, content bool, extra func(fsck.Image) []string) (findings []string) {
	defer func() {
		if p := recover(); p != nil {
			findings = append(findings, fmt.Sprintf("fsck panicked on image: %v", p))
		}
	}()
	for _, f := range fsck.CheckImage(img).Violations() {
		findings = append(findings, f.String())
	}
	findings = auxFindings(findings, img, content, extra)
	return findings
}

// deltaViolates is checkImage's incremental counterpart: the structural
// check splices dc's cached baseline records, while the content scan and
// any extra oracle still walk the candidate in full. It only answers
// whether the candidate violates — dc runs with SkipDetails, and callers
// that keep the candidate re-check it with checkImage for the strings. A
// panic inside fsck counts as a violation; the re-check reproduces it.
func deltaViolates(dc *fsck.DeltaChecker, ov *overlay, content bool, extra func(fsck.Image) []string) (vio bool) {
	defer func() {
		if p := recover(); p != nil {
			vio = true
		}
	}()
	for _, f := range dc.Check(ov).Findings {
		if f.Kind.Violation() {
			return true
		}
	}
	if content && len(fsck.ContentViolationsImage(ov)) != 0 {
		return true
	}
	return extra != nil && len(extra(ov)) != 0
}

func auxFindings(findings []string, img fsck.Image, content bool, extra func(fsck.Image) []string) []string {
	if content {
		for _, f := range fsck.ContentViolationsImage(img) {
			findings = append(findings, f.String())
		}
	}
	if extra != nil {
		findings = append(findings, extra(img)...)
	}
	return findings
}
