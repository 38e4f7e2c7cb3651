// Package fsim is the public API of the metaupdate library: it assembles a
// complete simulated system — CPU, HP C2447-class disk, device driver with
// the selected scheduler-ordering mode, buffer cache with syncer daemon,
// and the FFS-like file system mounted with one of eight metadata update
// schemes (the paper's five, its section 7 NVRAM comparison point,
// Journaling and Async Durability; scheme.go declares each once) — and
// runs workloads against it in deterministic virtual time.
//
// Quick start:
//
//	sys, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates})
//	...
//	elapsed := sys.Run(func(p *fsim.Proc) {
//	    ino, _ := sys.FS.Create(p, fsim.RootIno, "hello")
//	    sys.FS.WriteAt(p, ino, 0, []byte("world"))
//	    sys.FS.Sync(p)
//	})
//
// Everything runs in virtual time; results are bit-for-bit reproducible.
package fsim

import (
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/ffs"
	"metaupdate/internal/obs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// FaultSpec re-exports the fault plan parameters (see internal/fault).
type FaultSpec = fault.Spec

// Errors a faulted disk can surface through file system operations.
var (
	// ErrIO: the driver exhausted its retry budget on a transient/torn
	// fault.
	ErrIO = dev.ErrIO
	// ErrBadSector: a permanently bad sector could not be read or remapped.
	ErrBadSector = dev.ErrBadSector
)

// Re-exported core types, so most callers need only this package.
type (
	// Proc is a simulated process.
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Ino is an inode number.
	Ino = ffs.Ino
	// Dirent is a directory entry.
	Dirent = ffs.Dirent
	// Inode is a decoded inode.
	Inode = ffs.Inode
)

// RootIno is the root directory.
const RootIno = ffs.RootIno

// Convenient duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// FlagSemantics re-exports the driver's ordering-flag semantics.
type FlagSemantics = dev.FlagSemantics

// Ordering-flag semantics (section 3.1).
const (
	SemFull = dev.SemFull
	SemBack = dev.SemBack
	SemPart = dev.SemPart
)

// Options configures a System. The zero value (plus a Scheme) reproduces
// the paper's configuration: Part-NR/CB for the scheduler schemes,
// allocation initialization for soft updates only.
type Options struct {
	Scheme Scheme

	// Flag-scheme knobs (section 3.1/3.3). Defaults: SemPart, NR and CB
	// both set (the Part-NR/CB configuration used in section 5). Set
	// Explicit to take the zero values literally instead.
	Sem      FlagSemantics
	NR       bool
	CB       bool
	Explicit bool

	// AllocInit enforces allocation initialization for regular file data.
	// Default (when !Explicit): true only for SoftUpdates, matching the
	// paper's figures.
	AllocInit bool

	// BarrierFrees selects the chains scheme's simpler de-allocation
	// fallback (the section 3.2 ablation).
	BarrierFrees bool

	// IgnoreOrdering makes the driver ignore the flag/chain information the
	// file system supplies (the paper's "Ignore" comparison point — same
	// write pattern, free re-ordering, no integrity).
	IgnoreOrdering bool

	// Sizes; zero values pick paper-scaled defaults. The file system is
	// formatted over the whole disk, an HP C2447 (disk.HPC2447); the NVRAM
	// scheme's log is 1 MB.
	DiskBytes  int64 // materialized media (default 384 MB)
	NInodes    uint32
	CacheBytes int // buffer cache (default 24 MB)

	// JournalFrags sizes the on-disk journal region for Scheme ==
	// Journaling. The default scales with the file system: one fragment per
	// 128 KB of DiskBytes, clamped to [128, 4096] fragments — 3 MB for the
	// default 384 MB file system, 128 KB for the few-MB images of the crash
	// sweeps. One compound transaction may fill a quarter of the region.
	// Other schemes ignore it and format without a journal, keeping their
	// layouts byte-identical to pre-journal images.
	JournalFrags int32

	// AsyncWindow / AsyncInterval tune Scheme == AsyncDurability: the
	// bounded in-flight window of operations awaiting a durability
	// notification (default 64) and the group-commit flush period
	// (default 25 ms).
	AsyncWindow   int
	AsyncInterval Duration

	// Faults selects the deterministic fault plan injected at the media
	// layer (transient errors, permanent bad sectors, torn writes, latency
	// spikes). The zero value is a fault-free disk, byte-identical to runs
	// built before fault injection existed.
	Faults fault.Spec
	// MaxRetries bounds the driver's redispatches after a recoverable fault
	// (zero takes dev.DefaultMaxRetries). It only matters when Faults is
	// enabled.
	MaxRetries int

	// Observe attaches the operation-span recorder (internal/obs): every
	// FS operation records a virtual-time span with a per-stage latency
	// breakdown, available as System.Obs. The recorder is a pure observer
	// — enabling it cannot change any simulation result — and costs
	// nothing when off (mdsim -exp opstats and -optrace set it).
	Observe bool
}

func (o *Options) setDefaults() {
	if o.DiskBytes == 0 {
		o.DiskBytes = 384 << 20
	}
	if o.NInodes == 0 {
		o.NInodes = 16384
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 24 << 20
	}
	if e := o.Scheme.info(); e != nil {
		if e.paper != nil && !o.Explicit {
			e.paper(o)
		}
		if e.fixed != nil {
			e.fixed(o)
		}
	}
}

// System is a fully assembled simulated machine with a mounted file system.
type System struct {
	Opt    Options
	Eng    *sim.Engine
	CPU    *sim.CPU
	Disk   *disk.Disk
	Driver *dev.Driver
	Cache  *cache.Cache
	FS     *ffs.FS
	Soft   *ordering.SoftUpdates // non-nil when Scheme == SoftUpdates
	NV     *ordering.NVRAM       // non-nil when Scheme == NVRAM
	Jnl    *ordering.Journal     // non-nil when Scheme == Journaling
	Async  *ordering.Async       // non-nil when Scheme == AsyncDurability
	Obs    *obs.Recorder         // non-nil when Options.Observe

	statsStart sim.Time
}

// assemble builds one machine on eng: formatted disk, driver in the
// scheme's mode, cache, and the file system mounted (from process p) with a
// fresh ordering instance. opt has had its defaults set; rec may be nil.
func assemble(eng *sim.Engine, opt Options, rec *obs.Recorder, p *sim.Proc) (*System, error) {
	e := opt.Scheme.info()
	if e == nil {
		return nil, fmt.Errorf("fsim: unknown scheme %v", opt.Scheme)
	}
	sys := &System{Opt: opt, Eng: eng, CPU: &sim.CPU{}, Obs: rec}
	ord := e.build(&opt, sys)

	sys.Disk = disk.New(disk.HPC2447(), opt.DiskBytes)
	fp := ffs.FormatParams{TotalBytes: opt.DiskBytes, NInodes: opt.NInodes}
	if e.journal {
		fp.JournalFrags = opt.JournalFrags
	}
	if _, err := ffs.Format(sys.Disk, fp); err != nil {
		return nil, err
	}
	dcfg := dev.Config{Mode: e.mode, MaxRetries: opt.MaxRetries}
	if opt.IgnoreOrdering {
		dcfg.Mode = dev.ModeIgnore
	}
	if dcfg.Mode == dev.ModeFlag {
		dcfg.Sem, dcfg.NR = opt.Sem, opt.NR
	}
	sys.Driver = dev.New(eng, sys.Disk, dcfg)
	if opt.Faults.Enabled() {
		// The plan is compiled after Format, so the bad-sector set is a pure
		// function of (spec, disk size) and independent of mkfs traffic.
		sys.Disk.SetFaults(fault.New(opt.Faults, sys.Disk.Sectors()), 0)
	}
	sys.Cache = cache.New(eng, sys.Driver, sys.CPU, cache.Config{MaxBytes: opt.CacheBytes, CB: opt.CB})
	var err error
	sys.FS, err = ffs.Mount(eng, sys.CPU, sys.Cache, ord,
		ffs.Config{AllocInit: opt.AllocInit, Obs: rec}, p)
	return sys, err
}

// New formats a fresh file system and mounts it under the selected scheme.
func New(opt Options) (*System, error) {
	opt.setDefaults()
	eng := sim.NewEngine()
	var rec *obs.Recorder
	if opt.Observe {
		rec = obs.New(eng)
	}
	var sys *System
	var err error
	eng.Spawn("mount", func(p *sim.Proc) { sys, err = assemble(eng, opt, rec, p) })
	eng.Run()
	if err != nil {
		return nil, err
	}
	sys.Cache.StartSyncer()
	return sys, nil
}

// Run executes fn as a simulated process and drives the engine until it
// finishes (daemon processes keep running in the background). It returns
// the virtual time fn took.
func (s *System) Run(fn func(p *Proc)) Duration { return runMain(s.Eng, fn) }

// runMain runs fn as the process "main" on eng until it returns, and
// returns the virtual time it took.
func runMain(eng *sim.Engine, fn func(p *Proc)) Duration {
	start := eng.Now()
	done := false
	eng.Spawn("main", func(p *Proc) {
		fn(p)
		done = true
	})
	eng.RunWhile(func() bool { return !done })
	return eng.Now() - start
}

// RunUsers executes fn concurrently for n "users" (the paper's benchmark
// structure) and returns each user's elapsed time plus the overall wall
// time, all in virtual time.
func (s *System) RunUsers(n int, fn func(p *Proc, user int)) (each []Duration, wall Duration) {
	each = make([]Duration, n)
	var wg sim.WaitGroup
	wg.Add(n)
	for u := 0; u < n; u++ {
		u := u
		s.Eng.Spawn(fmt.Sprintf("user%d", u), func(p *Proc) {
			t0 := p.Now()
			fn(p, u)
			each[u] = p.Now() - t0
			wg.Done(s.Eng)
		})
	}
	return each, s.Run(func(p *Proc) { wg.Wait(p) })
}

// Shutdown ends a System's life: it stops the syncer daemon, drains the
// simulation so every process goroutine exits (a parked daemon would hold
// the engine and disk image for the life of the Go process, and the harness
// makes hundreds of Systems per sweep) and closes the cache, whose storage
// serves the next System. The disk and counters stay readable after it.
func (s *System) Shutdown() {
	s.Cache.StopSyncer()
	s.Eng.Run() // the syncer wakes once more, observes the stop, and exits
	s.Cache.Close()
}

// Crash freezes the system at virtual time t (which must be in the future)
// and returns the crash-consistent media image: completed writes plus the
// sector-exact prefix of any write in flight. The image is an independent
// copy (disk.Disk.CloneImage), so callers may inspect or repair it without
// racing the — now unusable — system's backing store.
func (s *System) Crash(t Time) []byte {
	s.Eng.RunUntil(t)
	s.Driver.Crash(t)
	return s.Disk.CloneImage()
}

// Stats is a snapshot of system-wide counters for an experiment window.
type Stats struct {
	Elapsed       Duration
	CPUTime       Duration
	DiskRequests  int
	AvgServiceMS  float64 // paper's "disk access time"
	AvgResponseMS float64 // paper's "driver response time"
	CacheHits     int64
	CacheMisses   int64
	// Write-discipline and ordering counters (windowed by ResetStats):
	// Bwrite calls, Bdwrite calls, and requests the driver stalled on
	// mode-specific ordering edges (always zero for the ModeIgnore
	// schemes: No Order, Conventional, Soft Updates).
	SyncWrites     int64
	DelayedWrites  int64
	OrderingStalls int64
	// Faults is the driver's cumulative recovery activity (not windowed by
	// ResetStats; all zero on a fault-free disk).
	Faults dev.FaultStats
	// LostWrites counts dirty buffers the cache abandoned after repeated
	// write failures (cumulative; the graceful-degradation data-loss path).
	LostWrites int64
}

// FaultStats re-exports the driver's fault counters.
type FaultStats = dev.FaultStats

// ResetStats clears the measurement window.
func (s *System) ResetStats() {
	s.Driver.Trace.Reset()
	s.CPU.Used = 0
	s.Cache.Hits, s.Cache.Misses = 0, 0
	s.Cache.SyncWrites, s.Cache.DelayedWrites = 0, 0
	s.Driver.OrderingStalls = 0
	s.statsStart = s.Eng.Now()
}

// CollectStats returns the counters accumulated since the last ResetStats.
func (s *System) CollectStats() Stats {
	return Stats{
		Elapsed:        s.Eng.Now() - s.statsStart,
		CPUTime:        s.CPU.Used,
		DiskRequests:   s.Driver.Trace.Requests(),
		AvgServiceMS:   s.Driver.Trace.AvgServiceMS(),
		AvgResponseMS:  s.Driver.Trace.AvgResponseMS(),
		CacheHits:      s.Cache.Hits,
		CacheMisses:    s.Cache.Misses,
		SyncWrites:     s.Cache.SyncWrites,
		DelayedWrites:  s.Cache.DelayedWrites,
		OrderingStalls: s.Driver.OrderingStalls,
		Faults:         s.Driver.Faults,
		LostWrites:     s.Cache.LostWrites,
	}
}
