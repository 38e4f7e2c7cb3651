package main

import (
	"runtime"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/disk"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/harness"
)

// The extras are the per-layer host metrics that belong to one workload
// and need runs of their own: the three two-worker speedups (the only
// multi-worker runs in the benchmark, at 2 = nproc on the reference box)
// and the fsck probes. They run after the workload's traced repetition,
// under the watchdog like a cell.

func runExtras(w workloadDef, sz sizes, seed int64, tr *tracer, host map[string]float64) {
	if w.extras == nil {
		return
	}
	if p := watched(w.name+"/extras", sz.deadline, func() { w.extras(sz, seed, tr, host) }); p != nil {
		panic(p)
	}
}

func spanned(tr *tracer, name string, fn func()) time.Duration {
	runtime.GC()
	sp := tr.begin(nil, name, "extra", nil)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(sp, nil)
	return d
}

// createExtras: create-closed's seven cells as harness cells through a
// one-worker and a two-worker runner — what cell-level parallelism buys.
func createExtras(sz sizes, _ int64, tr *tracer, host map[string]float64) {
	var cells []harness.Cell
	for _, sc := range schemes {
		cells = append(cells, harness.Cell{
			Kind: harness.CellFig5, Opt: fsim.Options{Scheme: sc.s, DiskBytes: sz.diskBytes},
			Fig5: harness.Fig5Creates, Users: sz.createUsers, TotalFiles: sz.createFiles,
		})
	}
	j1 := spanned(tr, "harness.runner_j1", func() { harness.NewRunner(1).All(cells) })
	j2 := spanned(tr, "harness.runner_j2", func() { harness.NewRunner(2).All(cells) })
	host["harness.runner_speedup_j2"] = ratio(j1.Seconds(), j2.Seconds())
}

// distExtras: the Soft Updates cluster cell on the serial engine and on
// the parallel engine with two workers — the PDES ratio.
func distExtras(sz sizes, seed int64, tr *tracer, host map[string]float64) {
	load := func(workers int) time.Duration {
		ds, err := fsim.NewDist(fsim.DistOptions{
			Base: fsim.Options{Scheme: fsim.SoftUpdates}, Nodes: sz.distNodes, Seed: seed, EngineWorkers: workers,
		})
		if err != nil {
			panic(err)
		}
		defer ds.Shutdown()
		name := "sim.lpgroup_serial"
		if workers > 1 {
			name = "sim.lpgroup_w2"
		}
		return spanned(tr, name, func() {
			ds.Cluster.Load(dmeta.LoadSpec{Clients: sz.distClients, Ops: sz.distOps, Seed: seed})
			ds.SyncAll()
		})
	}
	serial, w2 := load(0), load(2)
	host["sim.lpgroup_speedup_w2"] = ratio(serial.Seconds(), w2.Seconds())
}

// oneSectorDelta is a crash image that differs from its base in one
// sector: the smallest fsck.DeltaImage.
type oneSectorDelta struct {
	base, cur []byte
	dirty     []int64
}

func (d *oneSectorDelta) Len() int64                { return int64(len(d.cur)) }
func (d *oneSectorDelta) Range(off, n int64) []byte { return d.cur[off : off+n] }
func (d *oneSectorDelta) Base() fsck.Image          { return fsck.Bytes(d.base) }
func (d *oneSectorDelta) DirtySectors() []int64     { return d.dirty }

// crashExtras: the two-worker sweep ratio on the Soft Updates timeline,
// and full versus warm incremental fsck of a Soft Updates image crashed
// halfway through that timeline.
func crashExtras(sz sizes, _ int64, tr *tracer, host map[string]float64) {
	mc := newMachine(crashOpt(fsim.SoftUpdates, false))
	rec, total := record(mc, sz.crashFiles)
	mc.sys.Shutdown()
	var w1, w2 float64
	spanned(tr, "crashmc.explore_w1", func() { w1 = rec.Explore(exploreCfg(fsim.SoftUpdates, sz, 1)).Stats.CheckedPerSec })
	spanned(tr, "crashmc.explore_w2", func() { w2 = rec.Explore(exploreCfg(fsim.SoftUpdates, sz, 2)).Stats.CheckedPerSec })
	host["crashmc.speedup_w2"] = ratio(w2, w1)

	crashed := newMachine(crashOpt(fsim.SoftUpdates, false))
	crashed.sys.Eng.Spawn("timeline", func(p *fsim.Proc) {
		if err := crashTimeline(p, crashed.sys, sz.crashFiles); err != nil {
			panic(err)
		}
	})
	img := crashed.sys.Crash(crashed.sys.Eng.Now() + total/2)

	const fullN, deltaN = 20, 20000
	full := spanned(tr, "fsck.full", func() {
		for i := 0; i < fullN; i++ {
			fsck.CheckImage(fsck.Bytes(img))
		}
	})
	host["fsck.full_ms"] = full.Seconds() * 1e3 / fullN

	sb := crashed.sys.FS.Superblock()
	frag, off := sb.InodeFrag(5)
	delta := &oneSectorDelta{base: img, cur: append([]byte(nil), img...),
		dirty: []int64{(int64(frag)*ffs.FragSize + int64(off)) / disk.SectorSize}}
	dc := fsck.NewDeltaChecker(fsck.NewBaseline(fsck.Bytes(img), 1))
	dc.Check(delta) // warm the checker's scratch
	d := spanned(tr, "fsck.delta", func() {
		for i := 0; i < deltaN; i++ {
			dc.Check(delta)
		}
	})
	host["fsck.delta_ns"] = float64(d.Nanoseconds()) / deltaN
}
