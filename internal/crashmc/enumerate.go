package crashmc

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
)

// job is one crash state handed to the checker pool: the completed writes
// that make up the instant's committed image, plus the pending-write deltas
// hypothesized durable on top of it.
type job struct {
	seq int64
	// done is the explorer's doneOrder as it stood at the instant: base plus
	// done applied in order is the committed image. Only the slice header
	// travels — entries are immutable once appended, the explorer appends
	// beyond every header it has sent, and the channel send orders its
	// writes before the worker's reads.
	done    []*node
	subset  []*node // the writes hypothesized durable; pooled (checkerPool.subsets), nil if none
	partial *node
	psec    int
	instant int
}

// explorer walks the recorded timeline and generates crash states. It holds
// no image: a crash state is named by its done prefix and its subset, and
// deduplicated by signature, so enumeration costs what each event changes.
type explorer struct {
	rec *Recorder
	cfg Config

	jobs      chan job
	pool      *checkerPool
	doneOrder []*node // completed writes (and torn prefixes), completion order
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
	// before any worker sees them; under the async schemes most candidates
	// collapse this way.
	// doneH/doneOK are sector-indexed (the image size is fixed): the
	// committed content fingerprint of every write-reachable sector.
	// seenSec is the per-candidate claimed-generation stamp. Dense slices,
	// not maps — signature runs once per emitted candidate and the map
	// hashing showed up hard in sweep profiles.
	doneH      []uint64
	doneOK     []bool
	doneXor    uint64
	seenSec    []int
	gen        int // source of stamps: a set under construction takes a fresh value
	sigSeen    map[uint64]struct{}
	preDeduped int64

	// Enumeration scratch, reused across instants. resolved and member are
	// indexed by node ordinal, the rest by position in pending; member and
	// dropped are generation stamps like seenSec (holding the set's value
	// of gen means "in the set"), so starting a new set is one increment.
	resolved []bool // completed or failed: no longer constrains successors
	member   []int
	pos      []int // ordinal -> index in pending, where pending[pos].ord agrees
	children [][]int
	dropped  []int
	queue    []int
	sub, cur []*node
	undo     []sectorUndo
	sigs     []uint64

	// sigCheck, when set (tests), sees every candidate's signature before
	// the duplicate filter.
	sigCheck func(sig uint64, subset []*node, partial *node, psec int)
}

// sectorUndo remembers one sector's committed fingerprint while the DFS has
// a hypothesized write swapped in over it. (doneOK needs no undo: every
// sector a recorded write touches was seeded before the walk began.)
type sectorUndo struct {
	s int64
	h uint64
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

	pool := &checkerPool{cfg: cfg}
	x := newExplorer(r, cfg, pool)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.run(r.base, x.jobs)
		}()
	}
	x.walk()
	wg.Wait()

	res := &Result{
		Stats: Stats{
			Requests:         len(r.nodes),
			Writes:           r.writes,
			Instants:         x.instant + 1,
			Torn:             r.torn,
			Failed:           r.failed,
			Explored:         x.explored,
			Deduped:          x.preDeduped,
			Checked:          pool.checked.Load(),
			Violating:        pool.violating.Load(),
			BaselineBuilds:   pool.builds.Load(),
			BaselineAdvances: pool.advances.Load(),
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

func newExplorer(r *Recorder, cfg Config, pool *checkerPool) *explorer {
	x := &explorer{
		rec:      r,
		cfg:      cfg,
		jobs:     make(chan job, 4*cfg.Workers),
		pool:     pool,
		sigSeen:  make(map[uint64]struct{}),
		resolved: make([]bool, len(r.nodes)),
		member:   make([]int, len(r.nodes)),
		pos:      make([]int, len(r.nodes)),
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
	return x
}

// walk plays the timeline, emitting the crash states of every instant from
// cfg.From on, and closes the job channel.
func (x *explorer) walk() {
	defer close(x.jobs)
	if x.cfg.From <= 0 {
		x.emitInstant() // the pre-workload image
	}
	for _, ev := range x.rec.events {
		if x.stopped {
			return
		}
		if !x.step(ev) {
			continue
		}
		x.instant++
		if x.instant >= x.cfg.From {
			x.emitInstant()
		}
	}
}

// step applies one timeline event to the committed signature, the done
// order and the pending set, and reports whether it started a new crash
// instant (submitted reads change neither media nor legal subsets).
func (x *explorer) step(ev event) bool {
	r := x.rec
	switch {
	case ev.submit != 0:
		n := r.nodes[ev.submit]
		if n == nil || !n.write {
			return false
		}
		x.pending = append(x.pending, n)
	case ev.torn != nil:
		// A faulted batch landed a sector prefix: the media changed but
		// every request stays pending (the driver retries or fails them
		// later). The committed image gains the prefix — a new crash
		// atom — while the legal-subset machinery is untouched.
		left := ev.tornSec
		for _, id := range ev.torn {
			if left <= 0 {
				break
			}
			n := r.nodes[id]
			if n == nil || !n.write {
				continue
			}
			cnt := min(n.count, left)
			for i := 0; i < cnt; i++ {
				x.swapSector(n.lbn+int64(i), n.sech[i])
			}
			// The prefix enters the done order as a synthetic write, so
			// base + doneOrder stays the committed image byte for byte —
			// for the workers' rolling images and for shrink's replay.
			x.doneOrder = append(x.doneOrder, &node{
				id: n.id, write: true, lbn: n.lbn, count: cnt,
				data: n.data[:cnt*disk.SectorSize], sech: n.sech[:cnt],
			})
			left -= n.count
		}
	case ev.failed != nil:
		// Errored requests resolve without their data landing: they
		// leave the pending set and stop constraining successors (the
		// driver unblocks dependents of a failed request), so resolved
		// does not mean durable.
		for _, id := range ev.failed {
			if n := r.nodes[id]; n != nil {
				x.resolve(n)
			}
		}
	default:
		for _, id := range ev.complete {
			n := r.nodes[id]
			if n == nil || !n.write {
				continue
			}
			for i := 0; i < n.count; i++ {
				x.swapSector(n.lbn+int64(i), n.sech[i])
			}
			x.doneOrder = append(x.doneOrder, n)
			x.resolve(n)
		}
	}
	return true
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

// swapSector replaces sector s's contribution to the committed signature.
func (x *explorer) swapSector(s int64, h uint64) {
	if x.doneOK[s] {
		x.doneXor ^= mix(s, x.doneH[s])
	}
	x.doneXor ^= mix(s, h)
	x.doneH[s] = h
	x.doneOK[s] = true
}

// resolve retires a completed or failed request: it leaves the pending set
// and no longer constrains its successors.
func (x *explorer) resolve(n *node) {
	x.resolved[n.ord] = true
	for i, p := range x.pending {
		if p == n {
			x.pending = append(x.pending[:i], x.pending[i+1:]...)
			return
		}
	}
}

// eligible reports whether every outstanding predecessor of n carries the
// member stamp set (0: none may be outstanding).
func (x *explorer) eligible(n *node, set int) bool {
	for _, p := range n.predOrds {
		if !x.resolved[p] && (set == 0 || x.member[p] != set) {
			return false
		}
	}
	return true
}

// emitInstant generates the crash states of the current instant, in a
// deterministic order designed to surface violations early under a budget:
// the as-executed image first, then the all-pending image, then every
// leave-one-out subset (drop one write plus its dependents — the shape of
// a missed-ordering bug), then a DFS over the remaining legal subsets.
func (x *explorer) emitInstant() {
	emitted, attempts := 0, 0
	attemptCap := 32 * x.cfg.PerInstant
	emitSig := func(sig uint64, subset []*node, partial *node, psec int) bool {
		if x.stopped || emitted >= x.cfg.PerInstant || attempts >= attemptCap {
			return false
		}
		if x.explored >= int64(x.cfg.Budget) {
			x.stopped = true
			return false
		}
		attempts++
		if x.sigCheck != nil {
			x.sigCheck(sig, subset, partial, psec)
		}
		if _, dup := x.sigSeen[sig]; dup {
			x.preDeduped++
			return true // duplicate image: skip cheaply, keep enumerating
		}
		x.sigSeen[sig] = struct{}{}
		x.explored++
		emitted++
		x.jobs <- job{
			seq:     x.explored,
			done:    x.doneOrder,
			subset:  x.pool.getSubset(subset),
			partial: partial,
			psec:    psec,
			instant: x.instant,
		}
		return true
	}
	emit := func(subset []*node, partial *node, psec int) bool {
		return emitSig(x.signature(subset, partial, psec), subset, partial, psec)
	}
	// emitPartials emits w caught mid-transfer over subset, whose nodes
	// carry the member stamp set.
	emitPartials := func(subset []*node, set int, w *node) bool {
		if !x.eligible(w, set) {
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
		if !emitPartials(nil, 0, n) {
			return
		}
	}
	if len(x.pending) == 0 {
		return
	}

	// 2. Everything pending durable (always barrier-closed).
	emit(x.pending, nil, 0)

	// 3. Leave-one-out: drop each write plus its transitive dependents.
	for i, n := range x.pending {
		x.pos[n.ord] = i
	}
	for len(x.children) < len(x.pending) {
		x.children = append(x.children, nil)
		x.dropped = append(x.dropped, 0)
	}
	for i := range x.pending {
		x.children[i] = x.children[i][:0]
	}
	for i, n := range x.pending {
		for _, p := range n.predOrds {
			if pi := x.pos[p]; pi < len(x.pending) && x.pending[pi].ord == p {
				x.children[pi] = append(x.children[pi], i)
			}
		}
	}
	for i, victim := range x.pending {
		// Stamp the victim's closure in dropped, the survivors in member.
		x.gen++
		set := x.gen
		x.dropped[i] = set
		x.queue = append(x.queue[:0], i)
		for h := 0; h < len(x.queue); h++ {
			for _, c := range x.children[x.queue[h]] {
				if x.dropped[c] != set {
					x.dropped[c] = set
					x.queue = append(x.queue, c)
				}
			}
		}
		if len(x.queue) == len(x.pending) {
			continue // equals the as-executed state
		}
		x.sub = x.sub[:0]
		for j, n := range x.pending {
			if x.dropped[j] != set {
				x.sub = append(x.sub, n)
				x.member[n.ord] = set
			}
		}
		if !emit(x.sub, nil, 0) {
			return
		}
		// The dropped write caught mid-transfer over this subset.
		if !emitPartials(x.sub, set, victim) {
			return
		}
	}

	// 4. DFS over the remaining barrier-closed subsets, include-first.
	// Pending writes are visited in ID order, so a write pushed onto cur is
	// the newest writer of its sectors: swapping them into the committed
	// signature one at a time gives the signature of every sector prefix of
	// that write over cur, and of cur with it — no walk over the rest of
	// cur. The undo log puts the committed fingerprints back on pop.
	x.gen++
	chosen := x.gen
	x.cur = x.cur[:0]
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == len(x.pending) {
			return true
		}
		n := x.pending[i]
		if x.eligible(n, chosen) {
			x.member[n.ord] = chosen
			x.cur = append(x.cur, n)
			mark, xor := len(x.undo), x.doneXor
			x.sigs = x.sigs[:0]
			for s := 0; s < n.count; s++ {
				sec := n.lbn + int64(s)
				x.undo = append(x.undo, sectorUndo{sec, x.doneH[sec]})
				x.swapSector(sec, n.sech[s])
				x.sigs = append(x.sigs, x.doneXor) // n's first s+1 sectors over cur
			}
			ok := emitSig(x.doneXor, x.cur, nil, 0)
			for s := 1; s < n.count && ok; s++ {
				ok = emitSig(x.sigs[s-1], x.cur[:len(x.cur)-1], n, s)
			}
			if ok {
				ok = dfs(i + 1)
			}
			for _, u := range x.undo[mark:] {
				x.doneH[u.s] = u.h
			}
			x.undo, x.doneXor = x.undo[:mark], xor
			x.member[n.ord] = 0
			x.cur = x.cur[:len(x.cur)-1]
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
// handed: each worker assembles the job as a copy-on-write overlay over its
// own committed image and runs fsck through it, never materializing a
// candidate.
//
// Checking is incremental for every scheme: a worker derives an
// fsck.Baseline of its committed image once, advances it by the sectors
// the image moved by whenever it moves, and replays candidate deltas
// against it through its DeltaChecker — re-deriving only the state the
// delta's dirty sectors reach. A scheme with a recovery step (cfg.Recover)
// recovers each candidate in the worker's recoveryImage and replays the
// sectors the recovered image differs from the committed one by. The
// differential oracles (incremental_test.go) pin the reports bit-identical
// to full walks of the materialized, recovered candidate.
type checkerPool struct {
	cfg Config

	checked   atomic.Int64
	violating atomic.Int64
	builds    atomic.Int64
	advances  atomic.Int64

	// subsets free-lists the job subset slices (dev's request-pool idiom):
	// the single-threaded explorer copies each emitted subset into a slice
	// drawn here, and workers hand the same slice back after recording,
	// so steady-state emission stops allocating. A list, not a sync.Pool,
	// which a GC would empty.
	smu     sync.Mutex
	subsets [][]*node

	vmu        sync.Mutex
	violations []Violation
}

// getSubset copies subset into a pooled slice (nil for the empty subset).
func (cp *checkerPool) getSubset(subset []*node) []*node {
	if len(subset) == 0 {
		return nil
	}
	var s []*node
	cp.smu.Lock()
	if n := len(cp.subsets); n > 0 {
		s, cp.subsets = cp.subsets[n-1], cp.subsets[:n-1]
	}
	cp.smu.Unlock()
	return append(s[:0], subset...)
}

func (cp *checkerPool) putSubset(s []*node) {
	if s == nil {
		return
	}
	clear(s) // drop node references while pooled
	cp.smu.Lock()
	cp.subsets = append(cp.subsets, s)
	cp.smu.Unlock()
}

// committedImage is a worker's private copy of the media as of the newest
// job it has seen: base plus the first applied entries of the done order.
// Jobs reach a worker in emission order, so the image only rolls forward,
// by the bytes that completed in between.
type committedImage struct {
	img     []byte
	applied int
	dirty   []int64 // sectors the last move wrote (repeats allowed)
}

// advance rolls the image forward to done and reports whether it moved.
func (c *committedImage) advance(done []*node) bool {
	if len(done) == c.applied {
		return false
	}
	c.dirty = c.dirty[:0]
	for _, n := range done[c.applied:] {
		n.apply(c.img)
		for i := 0; i < n.count; i++ {
			c.dirty = append(c.dirty, n.lbn+int64(i))
		}
	}
	c.applied = len(done)
	return true
}

func (cp *checkerPool) run(base []byte, jobs <-chan job) {
	com := committedImage{img: getImage(base)}
	ov := &overlay{}
	var rec *recoveryImage // cfg.Recover's image; mirrors com.img
	if cp.cfg.Recover != nil {
		rec = newRecoveryImage(com.img)
	}
	var bl *fsck.Baseline     // of com.img as it stands; aliases it
	var dc *fsck.DeltaChecker // bound to bl
	for j := range jobs {
		moved := com.advance(j.done)
		if moved && rec != nil {
			rec.sync(com.dirty)
		}
		ov.load(&j, com.img)
		switch {
		case fullCheck != nil:
			if findings := fullCheck(ov, cp.cfg); len(findings) != 0 {
				cp.violating.Add(1)
				cp.record(j, findings)
			}
			cp.checked.Add(1)
			cp.putSubset(j.subset)
			continue
		case dc == nil:
			cp.builds.Add(1)
			bl = fsck.NewBaseline(fsck.Bytes(com.img), 1)
			dc = fsck.NewDeltaChecker(bl)
			dc.SkipDetails(true)
		case moved:
			if bl.Advance(com.dirty) {
				cp.builds.Add(1)
			} else {
				cp.advances.Add(1)
			}
			dc.Rebind(bl)
		}
		var img fsck.DeltaImage = ov
		var findings []string
		if rec != nil {
			if f := rec.load(ov, cp.cfg.Recover); f != "" {
				findings = []string{f}
			}
			img = rec
		}
		// Triage without formatting finding details — almost every
		// candidate's report is discarded. Only candidates that would
		// enter the retained set get a full formatted check, so the
		// recorded strings are identical to the full path's.
		if findings != nil || deltaViolates(dc, img, cp.cfg.ExtraCheck) {
			cp.violating.Add(1)
			if cp.wouldRetain(j.seq) {
				if findings == nil {
					findings = checkImage(img, cp.cfg.ExtraCheck)
				}
				cp.record(j, findings)
			}
		}
		if rec != nil {
			rec.restore()
		}
		cp.checked.Add(1)
		cp.putSubset(j.subset)
	}
	putImage(com.img)
	if rec != nil {
		putImage(rec.img)
	}
}

// images pools the workers' images for the next sweep, newest first and by
// exact length, at most as many as workers ever ran at once: byte slices,
// which the GC does not scan, in a list it does not empty (no sync.Pool).
var images struct {
	sync.Mutex
	free [][]byte
}

// getImage returns a copy of src, in a pooled image of its length if any.
func getImage(src []byte) (img []byte) {
	images.Lock()
	for i := len(images.free) - 1; i >= 0; i-- {
		if len(images.free[i]) == len(src) {
			img = images.free[i]
			images.free = slices.Delete(images.free, i, i+1)
			break
		}
	}
	images.Unlock()
	return append(img[:0], src...)
}

// putImage returns img to the pool. Nothing may touch it afterwards.
func putImage(img []byte) {
	images.Lock()
	images.free = append(images.free, img)
	images.Unlock()
}

// fullCheck, when set (tests), replaces a worker's incremental check of
// each candidate: it returns the candidate's findings from a reference
// path of its own. No Baseline is built while it is set.
var fullCheck func(ov *overlay, cfg Config) []string

// wouldRetain reports whether a violating candidate with this sequence
// number could enter the retained set. The retention bar (the highest seq
// currently kept, once the set is full) only ever tightens, so a false
// answer never becomes true later — skipping the formatted re-check on
// false is sound under any worker schedule.
func (cp *checkerPool) wouldRetain(seq int64) bool {
	cp.vmu.Lock()
	defer cp.vmu.Unlock()
	if len(cp.violations) < maxViolations {
		return true
	}
	for _, o := range cp.violations {
		if seq < o.Seq {
			return true
		}
	}
	return false
}

// record retains the violation, keeping the maxViolations lowest sequence
// numbers so the retained set is deterministic under any worker schedule.
func (cp *checkerPool) record(j job, findings []string) {
	v := Violation{
		Seq:       j.seq,
		Instant:   j.instant,
		Completed: len(j.done),
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
	if len(cp.violations) < maxViolations {
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
func checkImage(img fsck.Image, extra func(fsck.Image) []string) (findings []string) {
	defer func() {
		if p := recover(); p != nil {
			findings = append(findings, fmt.Sprintf("fsck panicked on image: %v", p))
		}
	}()
	for _, f := range fsck.CheckImage(img).Violations() {
		findings = append(findings, f.String())
	}
	if extra != nil {
		findings = append(findings, extra(img)...)
	}
	return findings
}

// deltaViolates is checkImage's incremental counterpart: the structural
// check splices dc's cached baseline records, while any extra oracle still
// walks the candidate in full. It only answers whether the candidate
// violates — dc runs with SkipDetails, and callers that keep the candidate
// re-check it with checkImage for the strings. A panic inside fsck counts
// as a violation; the re-check reproduces it.
func deltaViolates(dc *fsck.DeltaChecker, img fsck.DeltaImage, extra func(fsck.Image) []string) (vio bool) {
	defer func() {
		if p := recover(); p != nil {
			vio = true
		}
	}()
	for _, f := range dc.Check(img).Findings {
		if f.Kind.Violation() {
			return true
		}
	}
	return extra != nil && len(extra(img)) != 0
}
