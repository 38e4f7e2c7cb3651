package harness

import (
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/obs"
)

// distText renders the full mdsim -exp dist report through a runner with the
// given worker count, exactly as cmd/mdsim does. engineWorkers selects the
// per-cell event-engine parallelism (-engine-workers).
func distText(workers, engineWorkers int, scale Scale) (string, *Runner, Config) {
	r := NewRunner(workers)
	cfg := Config{Scale: scale, Runner: r, EngineWorkers: engineWorkers}
	var sb strings.Builder
	for _, tb := range DistExhibit.Tables(cfg) {
		tb.Fprint(&sb)
	}
	return sb.String(), r, cfg
}

// TestDistDeterministic asserts the dist report is byte-identical for a
// serial and a parallel runner, and for a cold versus warm memo — the
// satellite determinism pin for the distributed service.
func TestDistDeterministic(t *testing.T) {
	serial, _, _ := distText(1, 0, opTestScale)
	parallel, r4, cfg := distText(4, 0, opTestScale)
	if serial == "" {
		t.Fatal("empty dist report")
	}
	if !strings.Contains(serial, "Sharded metadata service") {
		t.Error("report is missing the cluster tables")
	}
	if serial != parallel {
		t.Errorf("dist differs between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s", serial, parallel)
	}

	hits0 := r4.Stats().Hits
	var warm strings.Builder
	for _, tb := range DistExhibit.Tables(cfg) {
		tb.Fprint(&warm)
	}
	if warm.String() != parallel {
		t.Error("dist differs between cold and warm memo on the same runner")
	}
	if r4.Stats().Hits <= hits0 {
		t.Error("warm rerun did not hit the memo")
	}
}

// TestDistEngineWorkersDeterministic is the report-level byte-identity pin
// for the PDES engine: the full dist report must match the serial render
// at every -engine-workers count, cold and warm (EngineWorkers is part of
// the cell fingerprint, so each count simulates its own cells — identical
// text proves identical simulations, not a shared memo entry).
func TestDistEngineWorkersDeterministic(t *testing.T) {
	serial, _, _ := distText(1, 0, opTestScale)
	if serial == "" {
		t.Fatal("empty dist report")
	}
	for _, ew := range []int{2, 4, 8} {
		text, r, cfg := distText(2, ew, opTestScale)
		if text != serial {
			t.Errorf("-engine-workers %d report differs from serial:\n--- serial ---\n%s\n--- ew=%d ---\n%s",
				ew, serial, ew, text)
			continue
		}
		hits0 := r.Stats().Hits
		var warm strings.Builder
		for _, tb := range DistExhibit.Tables(cfg) {
			tb.Fprint(&warm)
		}
		if warm.String() != text {
			t.Errorf("-engine-workers %d differs between cold and warm memo", ew)
		}
		if r.Stats().Hits <= hits0 {
			t.Errorf("-engine-workers %d warm rerun did not hit the memo", ew)
		}
	}
}

// TestDistSpanPartition extends the span-partition property test to a
// 2-node cluster: with the recorder attached, every router-op span's
// stage segments (now including netqueue and wire) must still partition
// its latency exactly, and the network stages must actually appear.
func TestDistSpanPartition(t *testing.T) {
	for _, v := range []variant{
		{fsim.Conventional.String(), fsim.Options{Scheme: fsim.Conventional}},
		{fsim.SoftUpdates.String(), fsim.Options{Scheme: fsim.SoftUpdates}},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			opt := v.opt
			opt.Observe = true
			s, err := fsim.NewDist(fsim.DistOptions{Base: opt, Nodes: 2, Seed: 17})
			if err != nil {
				t.Fatalf("NewDist: %v", err)
			}
			defer s.Shutdown()
			s.Obs.Reset() // profile the load only, not mount/init
			s.Cluster.Load(dmeta.LoadSpec{Clients: 3, Ops: 15, Seed: 17})
			spans := s.Obs.Spans()
			checkSpanPartition(t, "dist", spans)
			var net int
			for i := range spans {
				if spans[i].Seg[obs.StageNetQueue] > 0 || spans[i].Seg[obs.StageWire] > 0 {
					net++
				}
			}
			if net == 0 {
				t.Error("no span recorded netqueue/wire time on a 2-node cluster")
			}
		})
	}
}
