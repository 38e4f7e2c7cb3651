package fsim

import (
	"testing"

	"metaupdate/internal/dmeta"
)

// TestDistParallelWidth measures the per-round active-LP distribution of
// a 16-node Soft Updates cluster, the shape of bench's dist-cluster cell
// (run with -v for the histogram), and asserts
// the cluster actually exposes parallelism to the window scheduler: an
// average of at least 2 active LPs per round, with most rounds
// multi-active. A regression here — say, a protocol change that
// serializes all traffic through the router LP — would silently turn the
// PDES engine into pure overhead long before any wall-clock benchmark
// noticed on a busy CI runner. (Measured on this cell: ~5.9
// average active LPs, ~97% of rounds multi-active — the ceiling on what
// the parallel engine could gain; what it does gain is bench's
// sim.lpgroup_speedup_w2.)
func TestDistParallelWidth(t *testing.T) {
	s, err := NewDist(DistOptions{
		Base:  Options{Scheme: SoftUpdates},
		Nodes: 16, Seed: 99,
		EngineWorkers: 2,
	})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	defer s.Shutdown()
	g := s.Group
	nLP := 1 + s.Opt.MaxNodes
	var rounds, activeSum, multi int64
	hist := make([]int64, nLP+1)
	g.TraceWindow = func(base, horizon Time) {
		active := 0
		for i := 0; i < nLP; i++ {
			if at, ok := g.LP(i).NextAt(); ok && at < horizon {
				active++
			}
		}
		rounds++
		activeSum += int64(active)
		hist[active]++
		if active >= 2 {
			multi++
		}
	}
	e0 := g.Executed()
	s.Cluster.Load(dmeta.LoadSpec{Clients: 16, Ops: 150, Seed: 99})
	s.SyncAll()
	events := g.Executed() - e0

	avg := float64(activeSum) / float64(rounds)
	multiFrac := float64(multi) / float64(rounds)
	t.Logf("rounds=%d events=%d events/round=%.1f avg-active-LPs=%.2f multi-active=%.1f%%",
		rounds, events, float64(events)/float64(rounds), avg, 100*multiFrac)
	for a, c := range hist {
		if c > 0 {
			t.Logf("  active=%2d: %6d rounds (%.1f%%)", a, c, 100*float64(c)/float64(rounds))
		}
	}
	if avg < 2 {
		t.Errorf("average active LPs per round = %.2f, want >= 2 (cluster has serialized)", avg)
	}
	if multiFrac < 0.5 {
		t.Errorf("only %.1f%% of rounds have >= 2 active LPs, want >= 50%%", 100*multiFrac)
	}
}
