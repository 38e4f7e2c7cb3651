package harness

import (
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/obs"
)

// distText renders the full mdsim -exp dist report through a runner with the
// given worker count, exactly as cmd/mdsim does.
func distText(workers int, scale Scale) (string, *Runner, Config) {
	r := NewRunner(workers)
	cfg := Config{Scale: scale, Runner: r}
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
	serial, _, _ := distText(1, opTestScale)
	parallel, r4, cfg := distText(4, opTestScale)
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
