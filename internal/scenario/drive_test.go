package scenario_test

import (
	"reflect"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/arrival"
	"metaupdate/internal/scenario"
)

// smallOpts is a compact machine for driver tests.
func smallOpts(scheme fsim.Scheme) fsim.Options {
	return fsim.Options{
		Scheme:     scheme,
		DiskBytes:  64 << 20,
		NInodes:    8192,
		CacheBytes: 8 << 20,
	}
}

// driveMail runs one open-loop mail run and returns the result.
func driveMail(t *testing.T, scheme fsim.Scheme, spec scenario.RunSpec) scenario.Result {
	t.Helper()
	sys, err := fsim.New(smallOpts(scheme))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	stream, err := scenario.New("mail", spec.Arrival.Seed)
	if err != nil {
		t.Fatal(err)
	}
	target, err := scenario.SetupFS(sys.Eng, sys.FS, stream)
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Drive(sys.Eng, target, stream, spec)
}

// TestDriveAccounting pins the driver's counter invariants on a real
// system: every arrival is either admitted or dropped, every admitted
// operation completes, the measured window is framed correctly, and the
// in-flight high-water mark respects the admission bound.
func TestDriveAccounting(t *testing.T) {
	spec := scenario.RunSpec{
		Arrival: arrival.Spec{Kind: arrival.Poisson, Seed: 5, PerSec: 400},
		Ops:     600,
		Warmup:  100,
	}
	res := driveMail(t, fsim.SoftUpdates, spec)
	if res.Issued != spec.Ops {
		t.Errorf("issued %d, want %d", res.Issued, spec.Ops)
	}
	if res.Dropped != 0 {
		t.Errorf("unbounded run dropped %d arrivals", res.Dropped)
	}
	if res.Completed != res.Issued-res.Dropped {
		t.Errorf("completed %d, want issued-dropped %d", res.Completed, res.Issued-res.Dropped)
	}
	if res.MeasuredOps != spec.Ops-spec.Warmup {
		t.Errorf("measured %d, want %d", res.MeasuredOps, spec.Ops-spec.Warmup)
	}
	if res.LatCount != res.MeasuredOps {
		t.Errorf("latency samples %d, want one per measured op %d", res.LatCount, res.MeasuredOps)
	}
	if res.InFlightHWM < 1 {
		t.Errorf("in-flight high-water mark %d, want >= 1", res.InFlightHWM)
	}
	if res.WarmStart <= 0 || res.End <= res.WarmStart {
		t.Errorf("measured window [%v, %v] is degenerate", res.WarmStart, res.End)
	}
	if res.MeasuredPerSec <= 0 {
		t.Errorf("measured throughput %.1f/s, want > 0", res.MeasuredPerSec)
	}
	var issued int
	for _, ks := range res.PerKind {
		issued += ks.Issued
	}
	if issued != res.MeasuredOps+res.Dropped {
		t.Errorf("per-kind issued sum %d, want %d", issued, res.MeasuredOps)
	}
	// The mail stream is self-consistent and 400/s is modest load, so
	// overtaking should be rare-to-absent; a flood of soft errors means
	// the stream or driver is broken.
	if res.SoftErrs > res.Completed/10 {
		t.Errorf("soft errors %d out of %d completions — stream not self-consistent under load", res.SoftErrs, res.Completed)
	}
}

// TestDriveAdmissionBound: with MaxInFlight set, the bound is never
// exceeded and overload shows up as drops instead of unbounded queueing.
func TestDriveAdmissionBound(t *testing.T) {
	spec := scenario.RunSpec{
		// Far above capacity so the bound engages.
		Arrival:     arrival.Spec{Kind: arrival.Poisson, Seed: 5, PerSec: 20000},
		Ops:         800,
		Warmup:      100,
		MaxInFlight: 8,
	}
	res := driveMail(t, fsim.Conventional, spec)
	if res.InFlightHWM > spec.MaxInFlight {
		t.Errorf("in-flight high-water mark %d exceeds bound %d", res.InFlightHWM, spec.MaxInFlight)
	}
	if res.Dropped == 0 {
		t.Error("overloaded bounded run dropped nothing")
	}
	if res.Completed != res.Issued-res.Dropped {
		t.Errorf("completed %d, want issued-dropped %d", res.Completed, res.Issued-res.Dropped)
	}
}

// TestDriveDeterministic: the same spec on a fresh system reproduces the
// result exactly — the driver adds no hidden state on top of the
// simulation's virtual-time determinism.
func TestDriveDeterministic(t *testing.T) {
	spec := scenario.RunSpec{
		Arrival: arrival.Spec{Kind: arrival.Bursty, Seed: 9, PerSec: 300},
		Ops:     400,
		Warmup:  50,
	}
	a := driveMail(t, fsim.SchedulerChains, spec)
	b := driveMail(t, fsim.SchedulerChains, spec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestDriveCluster: the metadata-cluster target runs the same streams
// (metadata-only mapping) on the sharded service.
func TestDriveCluster(t *testing.T) {
	sys, err := fsim.NewDist(fsim.DistOptions{
		Base:  fsim.Options{Scheme: fsim.SoftUpdates},
		Nodes: 2,
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	res, err := sys.RunOpenLoop(fsim.OpenLoopSpec{
		Scenario: "mail",
		Arrival:  fsim.ArrivalSpec{Kind: fsim.Poisson, Seed: 3, PerSec: 100},
		Ops:      400,
		Warmup:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 400 || res.MeasuredOps != 350 {
		t.Errorf("cluster run completed %d measured %d, want 400/350", res.Completed, res.MeasuredOps)
	}
	// Cluster ops ride RPC round trips, so adjacent same-round ops
	// overtake more often than on the local FS; still, at 100/s the
	// stream should mostly find its files.
	if res.SoftErrs > res.Completed/5 {
		t.Errorf("cluster soft errors %d out of %d", res.SoftErrs, res.Completed)
	}
}
