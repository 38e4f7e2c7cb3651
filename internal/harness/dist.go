package harness

import (
	"fmt"

	"metaupdate/fsim"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/sim"
	"metaupdate/internal/trace"
)

// DistSpec is the cluster shape and client load of one CellDist cell.
// Every field participates in the cell fingerprint, so distinct cluster
// configurations memoize separately.
type DistSpec struct {
	// Nodes is the initial shard count; growth by dynamic splitting is
	// capped at Nodes+2 when SplitEntries is set (fsim default).
	Nodes int
	// Clients and Ops shape the deterministic metadata load.
	Clients, Ops int
	// SplitEntries is the dynamic-split trigger (0 = off).
	SplitEntries int
	// Seed keys every decision stream (routing, split points, workload).
	Seed int64
}

// DistResult is what one CellDist run measures: cluster growth, load
// throughput, cross-partition two-phase traffic, and the operation
// latency distributions as seen by the clients (network time included).
type DistResult struct {
	FinalNodes int
	Wall       sim.Duration
	Ops        int64
	CrossOps   int64 // two-phase (cross-partition) rename/link/unlink ops
	Forwards   int64 // requests routed by a stale partition map
	Splits     int64
	Migrated   int64 // entries moved during splits
	Lat        trace.Dist
	CrossLat   trace.Dist
	NetMsgs    int64
	NetBytes   int64
}

// mustDist builds the cluster of spec, each node from opt, or panics
// (harness-internal, like mustSystem).
func mustDist(opt fsim.Options, spec DistSpec) *fsim.DistSystem {
	s, err := fsim.NewDist(fsim.DistOptions{
		Base:         opt,
		Nodes:        spec.Nodes,
		Seed:         spec.Seed,
		SplitEntries: spec.SplitEntries,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: dist: %v", err))
	}
	return s
}

// distRun executes one cluster simulation from scratch (pure function of
// the options + spec, like every cell kind).
func distRun(opt fsim.Options, spec DistSpec) DistResult {
	s := mustDist(opt, spec)
	res := s.Cluster.Load(dmeta.LoadSpec{Clients: spec.Clients, Ops: spec.Ops, Seed: spec.Seed})
	s.SyncAll()
	// Shut down before reading the per-node/per-endpoint counters
	// (forwards, network traffic): they are only final once the exec has
	// drained.
	s.Shutdown()
	c := s.Cluster
	tot := s.Net.Totals()
	return DistResult{
		FinalNodes: c.ActiveNodes(),
		Wall:       res.Wall,
		Ops:        res.Ops,
		CrossOps:   c.CrossOps,
		Forwards:   c.Forwards(),
		Splits:     c.Splits,
		Migrated:   c.Migrated,
		Lat:        c.OpLat.Dist(),
		CrossLat:   c.CrossLat.Dist(),
		NetMsgs:    tot.Sent,
		NetBytes:   tot.Bytes,
	}
}

// DistExhibit is the sharded-metadata-service report behind mdsim -exp
// dist: each ordering scheme runs the same deterministic client load
// against 1-, 4-, and 16-node clusters, with entry-count splitting armed.
var DistExhibit = &Exhibit{Name: "dist", Build: buildDist}

// distNodeCounts is the cluster-size sweep of the dist report.
var distNodeCounts = []int{1, 4, 16}

func buildDist(cfg Config, get func(Cell) CellResult) []Table {
	const clients = 8
	ops := cfg.Scale.files(120)
	// The split threshold scales with the load so the 1-node run outgrows
	// its single partition at any scale (the floor keeps tiny test scales
	// from splitting on the first handful of creates).
	splitEntries := cfg.Scale.files(400)
	if splitEntries < 32 {
		splitEntries = 32
	}
	var tables []Table
	for _, nodes := range distNodeCounts {
		t := Table{
			Title: fmt.Sprintf("Sharded metadata service — %d initial node(s), %d clients x %d ops",
				nodes, clients, ops),
			Note: fmt.Sprintf("dynamic split at %d entries/node; latencies are client-observed (network included)", splitEntries),
			Columns: []string{"scheme", "final nodes", "splits", "migrated", "wall s", "ops/s",
				"cross ops", "forwards", "p50 ms", "p99 ms", "cross p50 ms", "cross p99 ms",
				"net msgs", "net MB"},
		}
		for _, s := range fsim.Schemes {
			d := get(Cell{Kind: CellDist, Opt: fsim.Options{Scheme: s}, Dist: DistSpec{
				Nodes:        nodes,
				Clients:      clients,
				Ops:          ops,
				SplitEntries: splitEntries,
				Seed:         42,
			}}).Dist
			opsPerSec := "-"
			if d.Wall > 0 {
				opsPerSec = fmt.Sprintf("%.0f", float64(d.Ops)/d.Wall.Seconds())
			}
			t.AddRow(s.String(),
				fmt.Sprintf("%d", d.FinalNodes),
				fmt.Sprintf("%d", d.Splits),
				fmt.Sprintf("%d", d.Migrated),
				secs2(d.Wall),
				opsPerSec,
				fmt.Sprintf("%d", d.CrossOps),
				fmt.Sprintf("%d", d.Forwards),
				fmt.Sprintf("%.2f", d.Lat.P50MS),
				fmt.Sprintf("%.2f", d.Lat.P99MS),
				fmt.Sprintf("%.2f", d.CrossLat.P50MS),
				fmt.Sprintf("%.2f", d.CrossLat.P99MS),
				fmt.Sprintf("%d", d.NetMsgs),
				fmt.Sprintf("%.2f", float64(d.NetBytes)/(1<<20)))
		}
		tables = append(tables, t)
	}
	return tables
}
