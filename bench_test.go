// Package metaupdate's root benchmarks regenerate each of the paper's
// tables and figures through the testing.B interface, one benchmark per
// exhibit. They run at reduced workload scale so `go test -bench=.`
// completes quickly, with each exhibit's simulation cells fanned out
// across GOMAXPROCS runner workers; the mdsim command runs the same
// experiments at paper scale (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the paper-vs-measured comparison).
//
// Reported custom metrics are virtual-time results (the simulation's
// deterministic outputs), not wall-clock noise:
//
//	vsec/...    virtual seconds of simulated elapsed time
//	files/vsec  virtual-time throughput
package metaupdate_test

import (
	"fmt"
	"strconv"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/harness"
	"metaupdate/internal/workload"
)

// benchScale keeps the full -bench=. sweep around a minute of real time.
const benchScale = harness.Scale(0.1)

// runExperiment executes a harness experiment once per iteration and
// reports the first numeric column of the first and last rows, which are
// the extremes the paper's shape claims are about. Each iteration gets a
// fresh cold runner (GOMAXPROCS-wide), so the measured time is the real
// cost of regenerating the exhibit from scratch — cells fan out across
// cores, but nothing is served from a previous iteration's memo.
func runExperiment(b *testing.B, name string, col int) {
	ex := harness.ExhibitByName[name]
	if ex == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	var tables []harness.Table
	for i := 0; i < b.N; i++ {
		cfg := harness.Config{Scale: benchScale, Runner: harness.NewRunner(0)}
		tables = ex.Tables(cfg)
	}
	for _, t := range tables {
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
		first, last := t.Rows[0], t.Rows[len(t.Rows)-1]
		if v, err := strconv.ParseFloat(first[col], 64); err == nil {
			b.ReportMetric(v, "first-row")
		}
		if v, err := strconv.ParseFloat(last[col], 64); err == nil {
			b.ReportMetric(v, "last-row")
		}
	}
}

// Figure 1: ordering-flag semantics under the 4-user copy benchmark.
func BenchmarkFig1FlagSemanticsCopy(b *testing.B) { runExperiment(b, "fig1", 1) }

// Figure 2: ordering-flag semantics under the 1-user remove benchmark.
func BenchmarkFig2FlagSemanticsRemove(b *testing.B) { runExperiment(b, "fig2", 1) }

// Figure 3: -NR / -CB implementation improvements, 4-user copy.
func BenchmarkFig3FlagImplCopy(b *testing.B) { runExperiment(b, "fig3", 1) }

// Figure 4: -NR / -CB implementation improvements, 4-user remove.
func BenchmarkFig4FlagImplRemove(b *testing.B) { runExperiment(b, "fig4", 1) }

// Figure 5: metadata update throughput vs. concurrency, per sub-figure and
// scheme at 4 users (the paper's mid-range point).
func BenchmarkFig5Throughput(b *testing.B) {
	kinds := []struct {
		name string
		kind harness.Fig5Kind
	}{
		{"creates", harness.Fig5Creates},
		{"removes", harness.Fig5Removes},
		{"create-removes", harness.Fig5CreateRemoves},
	}
	total := 1000
	for _, k := range kinds {
		for _, scheme := range fsim.Schemes {
			b.Run(fmt.Sprintf("%s/%s", k.name, scheme), func(b *testing.B) {
				b.ReportAllocs()
				var tput float64
				for i := 0; i < b.N; i++ {
					tput = harness.Fig5Point(fsim.Options{Scheme: scheme}, k.kind, 4, total)
				}
				b.ReportMetric(tput, "files/vsec")
			})
		}
	}
}

// BenchmarkFig5Cell is the hot-path probe: one simulation cell (Soft
// Updates creates at 4 users), no runner, no memoization — the unit of
// work the zero-allocation hot path optimizes. Compare allocs/op across
// commits to catch per-cell allocation regressions.
func BenchmarkFig5Cell(b *testing.B) {
	b.ReportAllocs()
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = harness.Fig5Point(fsim.Options{Scheme: fsim.SoftUpdates}, harness.Fig5Creates, 4, 1000)
	}
	b.ReportMetric(tput, "files/vsec")
}

// Figure 6: Sdet scripts/hour at 4 concurrent scripts per scheme.
func BenchmarkFig6Sdet(b *testing.B) {
	sdet := workload.DefaultSdet()
	sdet.CommandsPerScript = 40
	for _, scheme := range fsim.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				sys, err := fsim.New(fsim.Options{Scheme: scheme})
				if err != nil {
					b.Fatal(err)
				}
				var bin fsim.Ino
				sys.Run(func(p *fsim.Proc) {
					bin, err = sdet.SetupBinaries(p, sys.FS, fsim.RootIno)
				})
				if err != nil {
					b.Fatal(err)
				}
				sys.Cache.DropClean()
				_, wall := sys.RunUsers(4, func(p *fsim.Proc, u int) {
					if err := sdet.RunScript(p, sys.FS, fsim.RootIno, bin, u); err != nil {
						b.Fatal(err)
					}
				})
				sys.Shutdown()
				rate = 4 * 3600 / wall.Seconds()
			}
			b.ReportMetric(rate, "scripts/vhour")
		})
	}
}

// Table 1: full scheme comparison, 4-user copy (with/without allocation
// initialization).
func BenchmarkTable1CopyComparison(b *testing.B) { runExperiment(b, "table1", 2) }

// Table 2: full scheme comparison, 4-user remove.
func BenchmarkTable2RemoveComparison(b *testing.B) { runExperiment(b, "table2", 1) }

// Table 3: Andrew benchmark per scheme.
func BenchmarkTable3Andrew(b *testing.B) {
	for _, scheme := range fsim.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			var total fsim.Duration
			for i := 0; i < b.N; i++ {
				sys, err := fsim.New(fsim.Options{Scheme: scheme})
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(func(p *fsim.Proc) {
					times, err := workload.DefaultAndrew().Run(p, sys.FS, fsim.RootIno)
					if err != nil {
						b.Fatal(err)
					}
					total = times.Total()
				})
				sys.Shutdown()
			}
			b.ReportMetric(total.Seconds(), "vsec/total")
		})
	}
}

// Section 3.2 ablation: chains de-allocation approaches.
func BenchmarkChainsAblation(b *testing.B) { runExperiment(b, "chains-ablation", 1) }

// Section 3.3 ablation: chains with and without block copying.
func BenchmarkCBAblation(b *testing.B) { runExperiment(b, "cb-ablation", 1) }
