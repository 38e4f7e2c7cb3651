package harness

import (
	"fmt"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/scenario"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// CellKind selects the workload a Cell simulates.
type CellKind int

// The workload shapes the exhibits are built from.
const (
	// CellCopy prepares per-user source trees and runs the N-user copy
	// benchmark; with Remove set, it then runs the N-user remove benchmark
	// on the fresh copies (the paper's paired copy/remove methodology). With
	// Opt.Observe, each phase also carries its operation-span profile.
	CellCopy CellKind = iota
	// CellFig5 runs one figure 5 throughput point (1 KB metadata
	// operations split across the users).
	CellFig5
	// CellSdet runs Users concurrent Sdet scripts against shared binaries.
	CellSdet
	// CellAndrew runs the five-phase Andrew benchmark (single user).
	CellAndrew
	// CellFaultRecovery runs the metadata churn under a fault plan, pulls
	// the plug at CrashAt, recovers the image, and reports what survived.
	CellFaultRecovery
	// CellDist runs the sharded metadata service: Dist.Nodes machines
	// (each a full stack built from Opt) behind the inode-range router,
	// under the deterministic client load, with dynamic splitting.
	CellDist
	// CellOpenLoop runs one open-loop scenario point (Scenario names the
	// stream, Load the offered-load arrival process and the measured
	// window) on a single machine and reports the scenario driver's result.
	CellOpenLoop
	// CellOpenLoopDist runs the same open-loop point against the sharded
	// metadata service (Dist shapes the cluster; Scenario and Load the
	// load).
	CellOpenLoopDist
)

// Cell is one self-contained deterministic simulation: a complete system
// configuration plus a workload. Exhibits declare cells and assemble their
// tables from the resulting CellResults; the Runner decides execution
// order, parallelism, and reuse. Because every cell builds its own
// fsim.System (engine, disk, driver, cache, file system) and runs in
// virtual time, cells share no mutable state and may execute on any worker
// in any order without changing their results.
type Cell struct {
	Kind CellKind
	Opt  fsim.Options

	// Users is the concurrent-user count (CellCopy, CellFig5, CellSdet).
	Users int
	// Scale shrinks the CellCopy tree spec, as in Config.Scale.
	Scale Scale
	// Remove additionally runs the remove phase after the copy (CellCopy).
	Remove bool

	// Fig5 selects the sub-benchmark and TotalFiles the file budget
	// (CellFig5).
	Fig5       Fig5Kind
	TotalFiles int

	// Commands is the per-script command count (CellSdet).
	Commands int

	// CrashAt is the virtual instant the plug is pulled (CellFaultRecovery).
	CrashAt sim.Duration

	// Dist configures the cluster shape and client load (CellDist), or the
	// cluster shape alone (CellOpenLoopDist).
	Dist DistSpec

	// Scenario names the internal/scenario stream and Load drives it
	// (CellOpenLoop, CellOpenLoopDist).
	Scenario string
	Load     scenario.RunSpec
}

// CellResult carries every measurement a cell kind can produce; unused
// fields stay zero. Wall is the real (not virtual) execution time of the
// cell, recorded once by the worker that ran it — memoized reuses keep the
// original value.
type CellResult struct {
	Copy       copyStats            // CellCopy
	RemoveRes  copyStats            // CellCopy with Remove
	Throughput float64              // CellFig5: files per virtual second
	SdetWall   sim.Duration         // CellSdet: wall virtual time for all scripts
	Andrew     workload.AndrewTimes // CellAndrew
	FaultRec   FaultRecovery        // CellFaultRecovery
	Dist       DistResult           // CellDist
	OpenLoop   scenario.Result      // CellOpenLoop / CellOpenLoopDist
	Wall       time.Duration        // real execution time of the simulation
}

// Fingerprint returns the cell's canonical identity: two cells with equal
// fingerprints run byte-identical simulations. The key is the struct
// itself in Go syntax, so a field added to Cell or fsim.Options takes part
// without being listed here and distinct configurations can never
// collide. %#v and not %+v: the latter prints through String methods, and
// sim.Time's rounds to the microsecond — two cells differing only in a
// sub-microsecond duration would share a key.
func (c Cell) Fingerprint() string { return fmt.Sprintf("%#v", c) }

// run executes the cell's simulation from scratch. It is a pure function
// of the cell value: all state lives inside the freshly built system.
func (c Cell) run() CellResult {
	switch c.Kind {
	case CellCopy:
		cp, rm := copyBench(c.Opt, c.Users, c.Scale, c.Remove, nil)
		return CellResult{Copy: cp, RemoveRes: rm}
	case CellFig5:
		return CellResult{Throughput: Fig5Point(c.Opt, c.Fig5, c.Users, c.TotalFiles)}
	case CellSdet:
		return CellResult{SdetWall: sdetBench(c.Opt, c.Users, c.Commands)}
	case CellAndrew:
		return CellResult{Andrew: andrewBench(c.Opt)}
	case CellFaultRecovery:
		return CellResult{FaultRec: faultRecoveryRun(c.Opt, c.CrashAt)}
	case CellDist:
		return CellResult{Dist: distRun(c.Opt, c.Dist)}
	case CellOpenLoop, CellOpenLoopDist:
		return CellResult{OpenLoop: openLoopRun(c)}
	}
	panic(fmt.Sprintf("harness: unknown cell kind %d", c.Kind))
}

// sdetBench runs Users concurrent Sdet scripts (figure 6's unit of work)
// and returns the virtual wall time.
func sdetBench(opt fsim.Options, users, commands int) sim.Duration {
	sdet := workload.DefaultSdet()
	sdet.CommandsPerScript = commands
	sys := mustSystem(opt)
	defer sys.Shutdown()
	var bin fsim.Ino
	sys.Run(func(p *fsim.Proc) {
		var err error
		bin, err = sdet.SetupBinaries(p, sys.FS, fsim.RootIno)
		if err != nil {
			panic(err)
		}
	})
	sys.Cache.DropClean() // scripts start against a cold cache
	_, wall := sys.RunUsers(users, func(p *fsim.Proc, u int) {
		if err := sdet.RunScript(p, sys.FS, fsim.RootIno, bin, u); err != nil {
			panic(err)
		}
	})
	return wall
}

// andrewBench runs the five-phase Andrew benchmark (table 3's unit of work).
func andrewBench(opt fsim.Options) workload.AndrewTimes {
	sys := mustSystem(opt)
	defer sys.Shutdown()
	var times workload.AndrewTimes
	sys.Run(func(p *fsim.Proc) {
		var err error
		times, err = workload.DefaultAndrew().Run(p, sys.FS, fsim.RootIno)
		if err != nil {
			panic(err)
		}
	})
	return times
}
