package fsim

import (
	"fmt"

	"metaupdate/internal/dmeta"
	"metaupdate/internal/ffs"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
	"metaupdate/internal/simnet"
)

// NetParams re-exports the simulated-network cost model (internal/simnet).
type NetParams = simnet.Params

// Namespace errors the distributed router returns — the same values the
// single-machine file system uses.
var (
	ErrExist    = ffs.ErrExist
	ErrNotExist = ffs.ErrNotExist
	ErrIsDir    = ffs.ErrIsDir
)

// DistOptions configures a sharded metadata cluster: N node machines,
// each a full single-machine stack built from Base (one per node, so the
// ordering scheme under comparison runs independently on every shard),
// connected by a simulated network and partitioned by inode-id range.
type DistOptions struct {
	// Base is the per-node machine configuration. Sizes left zero get
	// dist-scale defaults (32 MB disk, 2 MB cache, 4096 inodes) — a
	// metadata node holds many small files, not user data.
	Base Options

	// Nodes is the initial shard count (default 1). MaxNodes caps growth
	// by dynamic splitting; it defaults to Nodes when no split trigger is
	// configured and Nodes+2 otherwise.
	Nodes, MaxNodes int

	// Seed keys every dmeta decision stream (router allocation, split
	// points, migration batching, the workload).
	Seed int64

	// SplitEntries / SplitQueue are the dynamic-split triggers (tree
	// size / inbox depth); 0 disables each.
	SplitEntries, SplitQueue int

	// Net is the link cost model; zero fields take simnet defaults.
	Net NetParams

	// EngineWorkers > 1 runs the cluster on a parallel group of
	// per-node event engines (one LP per node plus one for the
	// client/router) synchronized conservatively with the network
	// latency as lookahead, on that many worker goroutines. 0 or 1
	// selects the serial engine. Observable output is byte-identical
	// at every worker count.
	EngineWorkers int
}

func (o *DistOptions) setDefaults() {
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = o.Nodes
		if o.SplitEntries > 0 || o.SplitQueue > 0 {
			o.MaxNodes = o.Nodes + 2
		}
	}
	if o.Base.DiskBytes == 0 {
		o.Base.DiskBytes = 32 << 20
	}
	if o.Base.CacheBytes == 0 {
		o.Base.CacheBytes = 2 << 20
	}
	if o.Base.NInodes == 0 {
		o.Base.NInodes = 4096
	}
	o.Base.setDefaults()
}

// DistSystem is a fully assembled sharded metadata service: drive it
// through Cluster's router operations (Lookup, Create, Mkdir, Link,
// Unlink, Rename) or Cluster.Load. It runs either on one serial engine
// or (Opt.EngineWorkers > 1) on a parallel LP group — same protocol,
// byte-identical observables.
type DistSystem struct {
	Opt     DistOptions
	Exec    sim.Exec
	Eng     *sim.Engine  // the serial engine, or the group's LP 0
	Group   *sim.LPGroup // non-nil in parallel mode
	Net     *simnet.Network
	Cluster *dmeta.Cluster
	Obs     *obs.Recorder // non-nil when Base.Observe
}

// NewDist formats and mounts every node (spares included, so splits
// never pause to build a machine) and starts the per-node server loops
// and syncer daemons.
func NewDist(opt DistOptions) (*DistSystem, error) {
	opt.setDefaults()
	pe := opt.Net.Normalized()
	s := &DistSystem{Opt: opt}
	if opt.EngineWorkers > 1 {
		if opt.Base.Observe {
			return nil, fmt.Errorf("fsim: Observe needs the serial engine (the span recorder is single-engine state); drop EngineWorkers or Observe")
		}
		// One LP per node (spares included) plus LP 0 for the client and
		// router; the minimum network delay is the sync lookahead. The
		// labels reach pprof as per-LP goroutine labels.
		lps := make([]*sim.Engine, 1+opt.MaxNodes)
		for i := range lps {
			lps[i] = sim.NewEngine()
			if i == 0 {
				lps[i].Label = "router"
			} else {
				lps[i].Label = fmt.Sprintf("node%d", i)
			}
		}
		g, err := sim.NewLPGroup(lps, pe.Latency, opt.EngineWorkers)
		if err != nil {
			return nil, fmt.Errorf("fsim: EngineWorkers %d: %w", opt.EngineWorkers, err)
		}
		s.Exec, s.Eng, s.Group = g, lps[0], g
		s.Net = simnet.NewParallel(g, pe)
	} else {
		eng := sim.NewEngine()
		s.Exec, s.Eng = eng, eng
		s.Net = simnet.New(eng, pe)
		if opt.Base.Observe {
			s.Obs = obs.New(eng)
		}
	}

	// Per-node stack registry: init procs fill disjoint slots, so the
	// slice is safe to share across concurrently-built nodes.
	stacks := make([]*dmeta.Stack, opt.MaxNodes)
	build := func(p *sim.Proc, id int) (*dmeta.Stack, error) {
		st, err := buildStack(s.Net.Endpoint(id).Host(), opt.Base, s.Obs, p)
		if err != nil {
			return nil, err
		}
		stacks[id-1] = st
		return st, nil
	}
	cl, err := dmeta.New(s.Exec, s.Net, dmeta.Config{
		Nodes:        opt.Nodes,
		MaxNodes:     opt.MaxNodes,
		Seed:         opt.Seed,
		SplitEntries: opt.SplitEntries,
		SplitQueue:   opt.SplitQueue,
		Build:        build,
		Obs:          s.Obs,
	})
	if err != nil {
		if s.Group != nil {
			s.Group.Close()
		}
		return nil, err
	}
	s.Cluster = cl
	for _, st := range stacks {
		st.Cache.StartSyncer()
	}
	return s, nil
}

// buildStack assembles one node's machine on the node's host engine (the
// shared serial engine, or the node's own LP). It runs inside an
// already-live proc (p), unlike New which owns its engine and mounts from a
// fresh one.
func buildStack(eng *sim.Engine, opt Options, rec *obs.Recorder, p *sim.Proc) (*dmeta.Stack, error) {
	sys, err := assemble(eng, opt, rec, p)
	if err != nil {
		return nil, err
	}
	return &dmeta.Stack{CPU: sys.CPU, Disk: sys.Disk, Driver: sys.Driver, Cache: sys.Cache, FS: sys.FS}, nil
}

// Run executes fn as a simulated process against the cluster and drives
// the engine until it finishes; returns fn's virtual elapsed time.
func (s *DistSystem) Run(fn func(p *Proc)) Duration {
	start := s.Eng.Now()
	done := false
	s.Exec.Spawn("main", func(p *Proc) {
		fn(p)
		done = true
	})
	s.Exec.RunWhile(func() bool { return !done })
	return s.Eng.Now() - start
}

// SyncAll flushes every node's delayed writes.
func (s *DistSystem) SyncAll() { s.Cluster.SyncAll() }

// Shutdown stops the syncers and server loops, drains the exec, and
// releases the parallel worker pool.
func (s *DistSystem) Shutdown() {
	s.Cluster.Shutdown()
	if s.Group != nil {
		s.Group.Close()
	}
}

// Crash runs the cluster to virtual time t, power-fails every node
// simultaneously, and returns the per-node surviving media images.
func (s *DistSystem) Crash(t Time) [][]byte {
	if t < s.Eng.Now() {
		panic(fmt.Sprintf("fsim: dist crash time %v is in the past", t))
	}
	if s.Group != nil {
		if max := s.Group.NowMax(); t < max {
			// Some LP legitimately ran ahead of LP 0 (bounded by one
			// window, i.e. under the network latency): a cut below its
			// clock would not be mode-independent. Cut at LP 0 time +
			// MinDelay or later and the snapshot is byte-identical at
			// every worker count.
			panic(fmt.Sprintf("fsim: dist crash time %v precedes a parallel LP clock %v; cut at Now()+Net.MinDelay() or later", t, max))
		}
	}
	s.Exec.RunUntil(t)
	imgs := s.Cluster.Crash(t)
	if s.Group != nil {
		s.Group.Close()
	}
	return imgs
}
