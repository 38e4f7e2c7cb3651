package crashmc

import (
	"testing"

	"metaupdate/fsim"
)

// BenchmarkCrashmcSweep explores one recorded soft-updates timeline at the
// standard sweep budget, incrementally and with per-candidate full checks
// (selected as production selects them: by a Recover hook, here a no-op).
// The custom checked/s metric is the number the sweep matrix reports; the
// incremental/full ratio is what BENCH_3.json's CI guard watches.
func BenchmarkCrashmcSweep(b *testing.B) {
	rec := recordRun(b, fsim.SoftUpdates, 70)
	for _, mode := range []struct {
		name string
		full bool
	}{
		{"incremental", false},
		{"full", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Workers: 2, Budget: 4000, PerInstant: 256}
			if mode.full {
				cfg.Recover = func([]byte) {}
			}
			b.ReportAllocs()
			var checked, elapsed float64
			for i := 0; i < b.N; i++ {
				res := rec.Explore(cfg)
				checked += float64(res.Stats.Checked)
				elapsed += res.Stats.ElapsedSec
			}
			if elapsed > 0 {
				b.ReportMetric(checked/elapsed, "checked/s")
			}
		})
	}
}
