package harness

import (
	"flag"
	"os"
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

var updateDistGolden = flag.Bool("update-dist-golden", false, "rewrite testdata/dist-0.05.txt from the current output")

// TestClusterGolden pins the cluster exhibits to a committed transcript:
// mdsim -exp dist followed by -exp scenario-mail -rate 100
// -scenario-nodes 2, both at scale 0.05. Routing, splits, the network's
// delivery order and every node's ordering scheme show up in these
// bytes, so a change to the engine or the network that moves any
// cluster number fails here.
func TestClusterGolden(t *testing.T) {
	dist, _, _ := distText(0, opTestScale)
	mail, _, _ := scenarioTables(0)
	got := dist + mail

	const path = "testdata/dist-0.05.txt"
	if *updateDistGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing cluster golden (regenerate with -update-dist-golden): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("cluster report diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
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
