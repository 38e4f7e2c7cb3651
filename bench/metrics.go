package main

import (
	"encoding/json"
	"sort"
	"strings"
)

// metricDef is one named metric as BENCHMARK.json lists it. The tables
// below are the single definition of the benchmark's names; BENCHMARK.json
// is their rendering (go run ./bench -manifest) and a test keeps the two
// equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only; per-layer metrics have none
}

const (
	lower  = "lower"
	higher = "higher"
)

// Units name the clock: "vs"/"vms" are virtual (modelled 1994 machine)
// seconds and milliseconds, "s"/"ms"/"ns" are host time.
const (
	unitVOps = "ops/vs"
	unitVMS  = "vms"
)

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds): repetitions continue until their timed phases add up to it,
// which as sized is one repetition. The driver's 136 runs must fit in 57
// minutes on a box that is at times 60 % slower than usual, and it repeats
// each workload ten times itself.
const runSeconds = 5

// hostMetrics are the end-to-end metrics on the host clock. Host time gets
// the widest bound the driver's contract allows, because the contract ties a
// bound to the spread of ten runs and on the reference box that spread is
// 9-27 % (README, "Steadiness"); the issue's 10 % holds between quiet runs
// only. Allocation is all but exact.
var hostMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"host_wall_s", "s", lower, 0.25},
	{"units_per_host_s", "1/s", higher, 0.25},
	{"host_alloc_mb", "MB", lower, 0.03},
}

// vBound is the bound of the virtual metrics. They repeat exactly for one
// input, and a driver run always uses the same input (inputSeed), so 1 %
// leaves room for nothing but a change to the model.
const vBound = 0.01

// endToEnd returns the 16 end-to-end metrics.
func endToEnd() []metricDef {
	defs := append([]metricDef(nil), hostMetrics...)
	for _, sc := range schemes {
		defs = append(defs, metricDef{"v_ops_per_s." + sc.slug, unitVOps, higher, vBound})
	}
	for _, sc := range schemes {
		if p99Schemes[sc.slug] {
			defs = append(defs, metricDef{"v_p99_ms." + sc.slug, unitVMS, lower, vBound})
		}
	}
	return defs
}

// definedOn reports whether an end-to-end metric is a metric of the
// workload. The host metrics are defined everywhere; the virtual ones only
// where a simulation runs in the timed phase (not crash-sweep), and the
// tail latency only where per-operation latency can be observed from
// outside the program (mail-open, dist-cluster). Suite runs, results.json
// and -compare carry defined metrics only. The driver's contract wants every
// name on every workload, so a driver run fills the rest with stand-ins
// (rep.standIn) that say nothing a defined metric does not.
func definedOn(metric, workload string) bool {
	switch {
	case strings.HasPrefix(metric, "v_p99_ms."):
		return workload == "mail-open" || workload == "dist-cluster"
	case strings.HasPrefix(metric, "v_"):
		return workload != "crash-sweep"
	}
	return true
}

// perLayer returns the per-layer metrics: 127 names.
func perLayer() []metricDef {
	var defs []metricDef
	perScheme := func(family, unit, better string) {
		for _, sc := range schemes {
			defs = append(defs, metricDef{Name: family + "." + sc.slug, Unit: unit, Better: better})
		}
	}
	one := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	perScheme("disk.requests", "count", lower)
	perScheme("disk.service_ms", unitVMS, lower)
	perScheme("dev.response_ms", unitVMS, lower)
	perScheme("cache.hit_ratio", "ratio", higher)
	perScheme("cache.sync_writes", "count", lower)
	perScheme("ffs.cpu_vs", "vs", lower)
	perScheme("obs.share_lock", "ratio", lower)
	perScheme("obs.share_barrier", "ratio", lower)
	perScheme("obs.share_diskwait", "ratio", lower)
	perScheme("obs.share_syncer", "ratio", lower)
	one("obs.share_net", "ratio", lower)
	one("ordering.journal_txns", "count", lower)
	one("ordering.journal_wraps", "count", lower)
	one("ordering.async_peak_pending", "count", lower)
	one("core.rollbacks", "count", lower)
	one("core.workitems", "count", lower)
	perScheme("scenario.slo_rate", "ops/vs", higher)
	one("scenario.soft_err_share", "ratio", lower)
	one("scenario.gen_late_ms_max", unitVMS, lower)
	one("dmeta.cross_ops", "count", lower)
	one("dmeta.forwards", "count", lower)
	one("simnet.msgs", "count", lower)
	one("simnet.mbytes", "MB", lower)
	one("sim.events", "count", lower)
	one("sim.lpgroup_speedup_w2", "ratio", higher)
	perScheme("crashmc.checked_per_s", "1/s", higher)
	one("crashmc.speedup_w2", "ratio", higher)
	one("fsck.full_ms", "ms", lower)
	one("fsck.delta_ns", "ns", lower)
	for _, mb := range microbenchmarks {
		one(mb.name, "ns", lower)
	}
	for _, l := range layers {
		one("host_share."+l, "ratio", lower)
	}
	one("harness.runner_speedup_j2", "ratio", higher)
	one("obs.overhead_ratio", "ratio", lower)
	return defs
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd(),
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
