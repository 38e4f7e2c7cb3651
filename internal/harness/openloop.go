package harness

import (
	"fmt"

	"metaupdate/fsim"
	"metaupdate/internal/arrival"
	"metaupdate/internal/scenario"
	"metaupdate/internal/sim"
)

// The open-loop exhibits (mdsim -exp load / scenario-<name>) compare the
// schemes under offered load instead of closed-loop equilibrium: an
// arrival process (internal/arrival) dictates when operations are
// offered, a scenario stream (internal/scenario) dictates what they are,
// and the driver measures latency from the scheduled arrival instant — so
// queueing delay that N-users-with-think-time benchmarks self-throttle
// away is finally visible.

// loadRates is the offered-load sweep (arrivals per virtual second).
var loadRates = []int{25, 50, 100, 200, 400, 800, 1600}

// openLoopCell is one open-loop point: the scheme under the named stream
// at one Poisson offered load. With nodes == 0 it runs on the small
// machine every single-machine cell uses — a compact disk and cache, so
// the sweep crosses each scheme's capacity within the cell's op budget;
// otherwise against a nodes-node metadata cluster whose per-node sizes
// take the dist defaults.
func openLoopCell(scheme fsim.Scheme, scen string, rate, ops, warm, nodes int) Cell {
	c := Cell{
		Kind:     CellOpenLoop,
		Opt:      fsim.Options{Scheme: scheme},
		Scenario: scen,
		Load: scenario.RunSpec{
			Arrival: arrival.Spec{Kind: arrival.Poisson, Seed: 1, PerSec: rate},
			Ops:     ops,
			Warmup:  warm,
		},
	}
	if scheme == fsim.AsyncDurability {
		// Async runs the open loop with the block-copy enhancement: its
		// group-commit flusher keeps hot directory and inode-table
		// buffers in flight almost continuously, and without -CB every
		// naming operation would stall against those writes while holding
		// the inode lock — a convoy that measures the configuration, not
		// the scheme. Submit-time notification crediting keeps the crash
		// contract exact under -CB.
		c.Opt.Explicit, c.Opt.CB = true, true
	}
	if nodes > 0 {
		c.Kind, c.Dist = CellOpenLoopDist, DistSpec{Nodes: nodes, Seed: 42}
	} else {
		c.Opt.DiskBytes, c.Opt.NInodes, c.Opt.CacheBytes = 64<<20, 8192, 8<<20
	}
	return c
}

// openLoopRun executes one open-loop cell of either kind (pure function
// of the cell, like every cell kind): the stream's directory set is
// created on the single machine or through the cluster's router, then
// Drive offers c.Load until the last operation completes.
func openLoopRun(c Cell) scenario.Result {
	stream, err := scenario.New(c.Scenario, c.Load.Arrival.Seed)
	if err != nil {
		panic(fmt.Sprintf("harness: openloop: %v", err))
	}
	var eng *sim.Engine
	var target scenario.Target
	if c.Kind == CellOpenLoopDist {
		s := mustDist(c.Opt, c.Dist)
		defer s.Shutdown()
		eng = s.Eng
		target, err = scenario.SetupCluster(s.Cluster, stream)
	} else {
		sys := mustSystem(c.Opt)
		defer sys.Shutdown()
		eng = sys.Eng
		target, err = scenario.SetupFS(sys.Eng, sys.FS, stream)
	}
	if err != nil {
		panic(fmt.Sprintf("harness: openloop: %v", err))
	}
	return drained(c, scenario.Drive(eng, target, stream, c.Load))
}

// drained returns r, or panics if Drive returned with admitted operations
// parked: their cell has no throughput to report.
func drained(c Cell, r scenario.Result) scenario.Result {
	if parked := r.Issued - r.Dropped - r.Completed; parked != 0 {
		panic(fmt.Sprintf("harness: openloop: %s, %s stream at %d/s: %d admitted operations never completed",
			c.Opt.Scheme, c.Scenario, c.Load.Arrival.PerSec, parked))
	}
	return r
}

// loadOps sizes one load-curve cell: total arrivals and warmup prefix.
func loadOps(scale Scale) (ops, warm int) {
	ops = scale.files(8000)
	return ops, ops / 8
}

// LoadCurveExhibit is the saturation study behind mdsim -exp load: every
// scheme runs the mail scenario at each offered load of the sweep, and
// the tables report measured throughput and the latency tail — the
// paper's claim, pushed to the regime its closed-loop benchmarks cannot
// reach, is that Conventional's tail diverges at a lower offered load
// than the delayed-write schemes'.
var LoadCurveExhibit = &Exhibit{Name: "load", Build: buildLoadCurve}

func buildLoadCurve(cfg Config, get func(Cell) CellResult) []Table {
	ops, warm := loadOps(cfg.Scale)
	summary := Table{
		Title: "Open-loop saturation summary — mail scenario, p99 latency (ms) by offered load (ops/s)",
		Note:  "latency measured from the scheduled arrival instant; a diverging column is a scheme past saturation",
	}
	summary.Columns = []string{"scheme"}
	for _, rate := range loadRates {
		summary.Columns = append(summary.Columns, fmt.Sprintf("@%d", rate))
	}
	var tables []Table
	for _, s := range fsim.Schemes {
		t := Table{
			Title: fmt.Sprintf("Open-loop load curve — %s, mail scenario, %d ops (%d warmup)", s, ops, warm),
			Note:  "open loop: arrivals keep coming whether or not earlier operations finished",
			Columns: []string{"offered/s", "measured/s", "p50 ms", "p99 ms", "p999 ms", "max ms",
				"inflight hwm", "soft errs"},
		}
		sumRow := []string{s.String()}
		for _, rate := range loadRates {
			r := get(openLoopCell(s, "mail", rate, ops, warm, 0)).OpenLoop
			t.AddRow(
				fmt.Sprintf("%d", rate),
				fmt.Sprintf("%.0f", r.MeasuredPerSec),
				fmt.Sprintf("%.2f", r.Lat.P50MS),
				fmt.Sprintf("%.2f", r.Lat.P99MS),
				fmt.Sprintf("%.2f", r.Lat.P999MS),
				fmt.Sprintf("%.2f", r.Lat.MaxMS),
				fmt.Sprintf("%d", r.InFlightHWM),
				fmt.Sprintf("%d", r.SoftErrs))
			sumRow = append(sumRow, fmt.Sprintf("%.1f", r.Lat.P99MS))
		}
		tables = append(tables, t)
		summary.AddRow(sumRow...)
	}
	return append(tables, summary)
}

// ScenarioExhibit is the single-rate scenario report behind mdsim -exp
// scenario-<name>: every scheme runs the named stream at one offered load
// (rate >= 1 arrivals per virtual second) on the single machine, and —
// when nodes > 1 — against a sharded cluster (CellOpenLoopDist).
func ScenarioExhibit(name string, rate, nodes int) *Exhibit {
	return &Exhibit{Name: "scenario-" + name, Build: func(cfg Config, get func(Cell) CellResult) []Table {
		ops, warm := loadOps(cfg.Scale)
		t := Table{
			Title: fmt.Sprintf("Open-loop scenario %q — %d ops/s offered, %d ops (%d warmup)", name, rate, ops, warm),
			Columns: []string{"scheme", "measured/s", "p50 ms", "p99 ms", "p999 ms",
				"inflight hwm", "soft errs"},
		}
		row := func(r scenario.Result, schemeName string) []string {
			return []string{
				schemeName,
				fmt.Sprintf("%.0f", r.MeasuredPerSec),
				fmt.Sprintf("%.2f", r.Lat.P50MS),
				fmt.Sprintf("%.2f", r.Lat.P99MS),
				fmt.Sprintf("%.2f", r.Lat.P999MS),
				fmt.Sprintf("%d", r.InFlightHWM),
				fmt.Sprintf("%d", r.SoftErrs),
			}
		}
		for _, s := range fsim.Schemes {
			r := get(openLoopCell(s, name, rate, ops, warm, 0)).OpenLoop
			t.AddRow(row(r, s.String())...)
		}
		tables := []Table{t}
		if nodes > 1 {
			// The cluster runs a smaller budget: every op is an RPC round
			// trip, and the comparison point is the shape, not the volume.
			dops := ops / 4
			if dops < 1 {
				dops = 1
			}
			dt := Table{
				Title: fmt.Sprintf("Open-loop scenario %q — %d-node metadata cluster, %d ops/s offered, %d ops",
					name, nodes, rate, dops),
				Note:    "metadata-only op mapping (reads/stats/fsyncs become lookups); latencies include the network",
				Columns: t.Columns,
			}
			for _, s := range fsim.Schemes {
				r := get(openLoopCell(s, name, rate, dops, dops/8, nodes)).OpenLoop
				dt.AddRow(row(r, s.String())...)
			}
			tables = append(tables, dt)
		}
		return tables
	}}
}
