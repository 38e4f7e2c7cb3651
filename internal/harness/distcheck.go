package harness

import (
	"fmt"
	"io"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
)

// DistCrashCheckOptions parameterizes one cluster-wide model-checked run.
type DistCrashCheckOptions struct {
	// Scheme is the per-node ordering scheme. The zero value is
	// fsim.NoOrder (it is the iota base), so no default is applied —
	// callers say what they mean.
	Scheme fsim.Scheme
	// Nodes is the shard count (default 4).
	Nodes int
	// Clients / Ops shape the dmeta load (defaults: Nodes clients, 40 ops
	// each) — the mix includes cross-partition renames and links, so the
	// two-phase prepare/commit path is always exercised.
	Clients, Ops int
	// Seed keys the cluster's decision streams and the workload.
	Seed int64
	// MC bounds each node's exploration; zero values take crashmc
	// defaults. The per-node budget is MC.Budget (not divided), so a
	// 4-node run checks up to 4x MC.Budget states.
	MC crashmc.Config
}

func (o *DistCrashCheckOptions) setDefaults() {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Clients <= 0 {
		o.Clients = o.Nodes
	}
	if o.Ops <= 0 {
		o.Ops = 40
	}
}

// distChurn sizes the paper's create/remove workload at cluster level:
// after the mixed load, distChurn files are created under one directory,
// synced, then removed — so the final flush carries remove-ordering traffic
// on every shard (that is where unordered schemes violate).
const distChurn = 24

// DistNodeCheck is one node's exploration outcome.
type DistNodeCheck struct {
	Node   int
	Result *crashmc.Result
}

// DistCrashCheckResult is the union outcome of checking every node of a
// crashed cluster: the per-node crash-state explorations (each against
// fsck plus the naming-discipline oracle) and the cross-node reference
// scan over the actual crash-cut images.
type DistCrashCheckResult struct {
	Load  dmeta.LoadResult
	Nodes []DistNodeCheck

	// Union counters over all nodes' explorations.
	Checked, Violating int64
	CheckedPerSec      float64

	// Cross-node union scan of the crash-cut images. A dentry file on any
	// node names a logical inode; BackedInodes counts the logical inodes
	// with a backing file, DentryRefs the dentry references found.
	// CrossDangling (a reference whose target is backed nowhere) and
	// CrossDoubleOwned (an inode backed on two nodes — a migration caught
	// between copy and delete) are informational, not violations: they
	// describe one legal crash cut, and recovery reconciles them from the
	// surviving local images.
	BackedInodes, DentryRefs        int
	CrossDangling, CrossDoubleOwned int
}

// Clean reports whether no node's exploration found a violating image.
func (r *DistCrashCheckResult) Clean() bool { return r.Violating == 0 }

// DistCrashCheck builds a sharded metadata cluster, drives the mixed
// dmeta load against it, power-fails every node at once, and
// bounded-exhaustively explores each node's crash-state space — fsck's
// structural rules plus a naming-discipline oracle over dmeta's backing
// layout (/i/x<hex> inode files, /d/p<hex>/<name>=<hex> dentry files).
// The per-node explorations reuse the recorded write timelines, so the
// incremental checker's Baseline/delta machinery does the heavy lifting
// exactly as in the single-machine sweep.
func DistCrashCheck(opt DistCrashCheckOptions) (*DistCrashCheckResult, error) {
	opt.setDefaults()
	replay, err := opt.Scheme.MediaRecovery()
	if err != nil {
		return nil, err
	}
	sys, err := fsim.NewDist(fsim.DistOptions{
		Base: fsim.Options{
			Scheme:     opt.Scheme,
			DiskBytes:  6 << 20,
			NInodes:    1024,
			CacheBytes: 2 << 20,
		},
		Nodes: opt.Nodes,
		Seed:  opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()

	recs := make([]*crashmc.Recorder, opt.Nodes)
	for id := 1; id <= opt.Nodes; id++ {
		st := sys.Cluster.Node(id).St
		recs[id-1] = crashmc.Attach(st.Driver, st.Disk)
	}

	res := &DistCrashCheckResult{}
	res.Load = sys.Cluster.Load(dmeta.LoadSpec{Clients: opt.Clients, Ops: opt.Ops, Seed: opt.Seed})

	// The churn phase replays the paper's create/remove workload through
	// the router: a sync between the phases makes the creates durable, so
	// the removes' flush is pure remove-ordering traffic — dentry removal
	// vs. inode-free reorderings, spread over the shards by allocation.
	var werr error
	var churnDir uint64
	sys.Run(func(p *fsim.Proc) {
		if churnDir, werr = sys.Cluster.Mkdir(p, dmeta.RootIno, "mc"); werr != nil {
			return
		}
		for i := 0; i < distChurn; i++ {
			if _, err := sys.Cluster.Create(p, churnDir, fmt.Sprintf("m%d", i)); err != nil {
				werr = err
				return
			}
		}
	})
	if werr != nil {
		return nil, werr
	}
	sys.SyncAll()
	sys.Run(func(p *fsim.Proc) {
		for i := 0; i < distChurn; i++ {
			if err := sys.Cluster.Unlink(p, churnDir, fmt.Sprintf("m%d", i)); err != nil {
				werr = err
				return
			}
		}
	})
	if werr != nil {
		return nil, werr
	}
	// Flush the delayed writes into the recorded timelines (the sweep still
	// explores every pre-flush crash instant) and take the quiescent cut,
	// one network delay after the clock — the cluster is quiescent, so
	// nothing moves in the gap.
	sys.SyncAll()
	imgs := sys.Crash(sys.Eng.Now() + sys.Net.MinDelay())

	var elapsed float64
	for i, rec := range recs {
		cfg := opt.MC
		cfg.ExtraCheck = chainChecks(distShapeCheck, cfg.ExtraCheck)
		cfg.Recover = replay
		nr := rec.Explore(cfg)
		res.Nodes = append(res.Nodes, DistNodeCheck{Node: i + 1, Result: nr})
		res.Checked += nr.Stats.Checked
		res.Violating += nr.Stats.Violating
		elapsed += nr.Stats.ElapsedSec
	}
	if elapsed > 0 {
		res.CheckedPerSec = float64(res.Checked) / elapsed
	}
	crossScan(imgs, res)
	return res, nil
}

// chainChecks composes two ExtraCheck oracles (b may be nil).
func chainChecks(a, b func(fsck.Image) []string) func(fsck.Image) []string {
	if b == nil {
		return a
	}
	return func(img fsck.Image) []string {
		return append(a(img), b(img)...)
	}
}

// walkBacking classifies every entry of a node image by dmeta's backing-name
// grammar (dmeta.ParseBackingName), parents before children: visit gets the
// entry, the kind of the directory it sits in, its own kind and the logical
// inode id in its name.
func walkBacking(img fsck.Image, visit func(e fsck.WalkEntry, parent, kind dmeta.Kind, id uint64)) {
	kinds := make(map[ffs.Ino]dmeta.Kind)
	fsck.WalkTree(img, func(e fsck.WalkEntry) bool {
		parent := dmeta.KindRoot
		if e.Depth > 0 {
			parent = kinds[e.Parent]
		}
		kind, id := dmeta.ParseBackingName(parent, e.Name, e.Ftype)
		if e.Ftype == ffs.FtypeDir {
			kinds[e.Ino] = kind
		}
		visit(e, parent, kind, id)
		return true
	})
}

// distShapeCheck verifies a node image against dmeta's local naming
// discipline. Every local file is created by the node with a name drawn
// from a fixed grammar, names never cross sector boundaries, and writes
// are sector-atomic — so on ANY legal crash image every live entry still
// matches the grammar. Entries may be missing (not yet durable) or stale
// (durably removed later); the oracle never demands presence, only shape,
// which is what keeps it sound across all orderings a scheme permits.
func distShapeCheck(img fsck.Image) []string {
	var bad []string
	walkBacking(img, func(e fsck.WalkEntry, parent, kind dmeta.Kind, _ uint64) {
		if kind != dmeta.KindBad {
			return
		}
		what := "entry below an unclassified directory:"
		switch parent {
		case dmeta.KindRoot:
			what = "unexpected root entry"
		case dmeta.KindInoDir:
			what = "malformed inode-file entry"
		case dmeta.KindDentDir:
			what = "malformed parent-dir entry"
		case dmeta.KindParentDir:
			what = "malformed dentry entry"
		}
		bad = append(bad, fmt.Sprintf("dist: %s %q (ftype %d)", what, e.Name, e.Ftype))
	})
	return bad
}

// crossScan walks the actual crash-cut images as a union namespace:
// which logical inodes have backing files, and which dentries reference
// them. The counters feed the informational columns of the result — one
// crash cut of a cluster mid-two-phase-update legitimately shows
// cross-node imbalance, so these are observations, not verdicts.
func crossScan(imgs [][]byte, res *DistCrashCheckResult) {
	backed := make(map[uint64]int)
	var refs []uint64
	for _, img := range imgs {
		walkBacking(fsck.Bytes(img), func(_ fsck.WalkEntry, _, kind dmeta.Kind, id uint64) {
			switch kind {
			case dmeta.KindInoFile: // not its links: the plain file backs the id
				backed[id]++
			case dmeta.KindDentry:
				refs = append(refs, id)
			}
		})
	}
	res.BackedInodes = len(backed)
	res.DentryRefs = len(refs)
	for _, id := range refs {
		if backed[id] == 0 {
			res.CrossDangling++
		}
	}
	for _, n := range backed {
		if n > 1 {
			res.CrossDoubleOwned++
		}
	}
}

// Fprint renders the result as a table on w (nil w: no output).
func (r *DistCrashCheckResult) Fprint(w io.Writer) {
	if w == nil {
		return
	}
	t := &Table{
		Title:   "Cluster crash-state model check (per-node exploration + union scan)",
		Columns: sweepColumns("node"),
	}
	for _, n := range r.Nodes {
		t.AddRow(sweepRow(fmt.Sprintf("%d", n.Node), n.Result.Stats)...)
	}
	t.AddRow("union", "-", "-", "-",
		fmt.Sprintf("%d", r.Checked),
		fmt.Sprintf("%d", r.Violating),
		fmt.Sprintf("%.0f", r.CheckedPerSec))
	t.Fprint(w)
	fmt.Fprintf(w, "union scan: %d backed inodes, %d dentry refs, %d dangling, %d double-owned\n",
		r.BackedInodes, r.DentryRefs, r.CrossDangling, r.CrossDoubleOwned)
}
