// The open-loop driver: a dispatcher process sleeps to each arrival
// instant of an internal/arrival process and spawns one simulated process
// per admitted operation — work is offered on the arrival schedule
// whether or not earlier operations have finished, which is exactly the
// regime the repository's closed-loop benchmarks cannot reach. Everything
// runs in virtual time on the caller's engine, so results are
// byte-identical across harness worker counts and memo replay.

package scenario

import (
	"fmt"

	"metaupdate/internal/arrival"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
	"metaupdate/internal/trace"
)

// Target executes one scenario operation against some system.
type Target interface {
	Do(p *sim.Proc, op Op) error
}

// payload is the shared write source (content is irrelevant to the
// simulation; only sizes matter). Read-only after init, so concurrent
// simulated processes may slice it freely.
var payload = make([]byte, 64<<10)

// FSTarget drives a single-machine file system: data ops carry their
// full byte counts, so cache pressure and write-behind behave as the
// scenario intends.
type FSTarget struct {
	FS   *ffs.FS
	Dirs []ffs.Ino

	// sink receives every KRead's bytes (made at the first read, as large
	// as payload). Nobody looks at them, and the processes of one engine
	// run in lock-step, so overlapping reads may share it; it is per target
	// because the harness runs cells on concurrent goroutines.
	sink []byte
}

// SetupFS creates the stream's directory set under the root and returns
// the ready target. It runs its own process on eng.
func SetupFS(eng *sim.Engine, fs *ffs.FS, s Stream) (*FSTarget, error) {
	t := &FSTarget{FS: fs}
	var err error
	done := false
	eng.Spawn("scenario-setup", func(p *sim.Proc) {
		defer func() { done = true }()
		for d := 0; d < s.NDirs(); d++ {
			var ino ffs.Ino
			if ino, err = fs.Mkdir(p, ffs.RootIno, fmt.Sprintf("d%d", d)); err != nil {
				return
			}
			t.Dirs = append(t.Dirs, ino)
		}
	})
	eng.RunWhile(func() bool { return !done })
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Do executes op. Operations that reference a file a concurrent op has
// not created yet (or already removed) return the file system's error;
// the driver counts those as soft errors.
func (t *FSTarget) Do(p *sim.Proc, op Op) error {
	switch op.Kind {
	case KLookup:
		_, err := t.FS.Lookup(p, t.Dirs[op.Dir], op.Name)
		return err
	case KCreate:
		ino, err := t.FS.Create(p, t.Dirs[op.Dir], op.Name)
		if err != nil {
			return err
		}
		if n := op.Size; n > 0 {
			if n > len(payload) {
				n = len(payload)
			}
			return t.FS.WriteAt(p, ino, 0, payload[:n])
		}
		return nil
	case KRename:
		return t.FS.Rename(p, t.Dirs[op.Dir], op.Name, t.Dirs[op.Dir2], op.Name2)
	case KUnlink:
		return t.FS.Unlink(p, t.Dirs[op.Dir], op.Name)
	case KRead:
		ino, err := t.FS.Lookup(p, t.Dirs[op.Dir], op.Name)
		if err != nil {
			return err
		}
		n := op.Size
		if n <= 0 || n > len(payload) {
			n = len(payload)
		}
		if t.sink == nil {
			t.sink = make([]byte, len(payload))
		}
		_, err = t.FS.ReadAt(p, ino, 0, t.sink[:n])
		return err
	case KFsync:
		ino, err := t.FS.Lookup(p, t.Dirs[op.Dir], op.Name)
		if err != nil {
			return err
		}
		return t.FS.Fsync(p, ino)
	}
	return fmt.Errorf("scenario: unknown op kind %d", op.Kind)
}

// ClusterTarget drives the sharded metadata service. The mapping is
// metadata-only — dmeta has no data plane, so reads, stats, and fsyncs
// become lookups; the ordering-relevant ops (create/rename/unlink) map
// directly.
type ClusterTarget struct {
	C    *dmeta.Cluster
	Dirs []uint64
}

// SetupCluster creates the stream's directory set under the cluster root
// and returns the ready target. It runs its own client process on the
// cluster's engine.
func SetupCluster(c *dmeta.Cluster, s Stream) (*ClusterTarget, error) {
	t := &ClusterTarget{C: c}
	var err error
	done := false
	c.Engine().Spawn("scenario-setup", func(p *sim.Proc) {
		defer func() { done = true }()
		for d := 0; d < s.NDirs(); d++ {
			var ino uint64
			if ino, err = c.Mkdir(p, dmeta.RootIno, fmt.Sprintf("d%d", d)); err != nil {
				return
			}
			t.Dirs = append(t.Dirs, ino)
		}
	})
	c.Engine().RunWhile(func() bool { return !done })
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Do executes op against the cluster.
func (t *ClusterTarget) Do(p *sim.Proc, op Op) error {
	switch op.Kind {
	case KCreate:
		_, err := t.C.Create(p, t.Dirs[op.Dir], op.Name)
		return err
	case KRename:
		return t.C.Rename(p, t.Dirs[op.Dir], op.Name, t.Dirs[op.Dir2], op.Name2)
	case KUnlink:
		return t.C.Unlink(p, t.Dirs[op.Dir], op.Name)
	case KLookup, KRead, KFsync:
		_, err := t.C.Lookup(p, t.Dirs[op.Dir], op.Name)
		return err
	}
	return fmt.Errorf("scenario: unknown op kind %d", op.Kind)
}

// RunSpec parameterizes one open-loop run.
type RunSpec struct {
	// Arrival is the offered-load process (must be enabled).
	Arrival arrival.Spec
	// Ops is the total number of arrivals to issue.
	Ops int
	// Warmup excludes the first Warmup arrivals from the measured window
	// (cold cache, empty directories).
	Warmup int
	// MaxInFlight bounds admission: an arrival finding this many
	// operations in flight is dropped (counted, not executed). Zero means
	// unbounded — true open loop.
	MaxInFlight int
}

// KindStats counts one op kind over the measured window.
type KindStats struct {
	Issued int
	Errs   int
}

// Result is one open-loop run's outcome. All fields are plain values
// derived from virtual time, so results memoize and compare exactly.
type Result struct {
	// Whole-run counters (warmup included).
	Issued      int // arrivals offered
	Dropped     int // arrivals refused by the MaxInFlight bound
	Completed   int // operations that ran to completion
	SoftErrs    int // completions that returned an error (e.g. overtaken deps)
	InFlightHWM int // peak concurrent operations — the queue-depth signal

	// Measured-window figures (arrival index >= Warmup).
	MeasuredOps    int      // measured completions
	WarmStart      sim.Time // arrival instant of the first measured index
	End            sim.Time // last measured completion
	MeasuredPerSec float64  // MeasuredOps over [WarmStart, End]
	Lat            trace.Dist
	LatCount       int // samples behind Lat (Digest.Count)
	PerKind        [NumKinds]KindStats
}

// Drive offers stream's operations to target on spec.Arrival's schedule
// and runs the engine until the last admitted operation completes.
// Operation latency is measured from the scheduled arrival instant —
// queueing delay a closed-loop harness would hide is included, which is
// the point of the open loop.
func Drive(eng *sim.Engine, target Target, stream Stream, spec RunSpec) Result {
	var res Result
	var lat trace.Digest
	done := false
	eng.Spawn("openloop", func(p *sim.Proc) {
		origin := p.Now()
		gen := arrival.NewGen(spec.Arrival)
		inflight := 0
		warmSet := false
		var wg sim.WaitGroup
		var lastDone sim.Time
		for i := 0; i < spec.Ops; i++ {
			at := origin + gen.Next()
			if at > p.Now() {
				p.Sleep(at - p.Now())
			}
			op := stream.At(int64(i))
			measured := i >= spec.Warmup
			if measured && !warmSet {
				res.WarmStart, warmSet = at, true
			}
			res.Issued++
			if measured {
				res.PerKind[op.Kind].Issued++
			}
			if spec.MaxInFlight > 0 && inflight >= spec.MaxInFlight {
				res.Dropped++
				continue
			}
			inflight++
			if inflight > res.InFlightHWM {
				res.InFlightHWM = inflight
			}
			wg.Add(1)
			sched := at
			eng.Spawn(fmt.Sprintf("op%d", i), func(q *sim.Proc) {
				err := target.Do(q, op)
				end := q.Now()
				res.Completed++
				if err != nil {
					res.SoftErrs++
				}
				if measured {
					res.MeasuredOps++
					if err != nil {
						res.PerKind[op.Kind].Errs++
					}
					lat.Add((end - sched).Milliseconds())
					if end > lastDone {
						lastDone = end
					}
				}
				inflight--
				wg.Done(eng)
			})
		}
		wg.Wait(p)
		res.End = lastDone
		done = true
	})
	eng.RunWhile(func() bool { return !done })
	res.Lat = lat.Dist()
	res.LatCount = lat.Count()
	if wall := res.End - res.WarmStart; wall > 0 && res.MeasuredOps > 0 {
		res.MeasuredPerSec = float64(res.MeasuredOps) / (float64(wall) / float64(sim.Second))
	}
	return res
}
