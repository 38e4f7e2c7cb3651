package harness

import (
	"fmt"

	"metaupdate/fsim"
)

// Table1 reproduces the paper's table 1: scheme comparison under the
// 4-user copy benchmark, with and without allocation initialization
// (No Order only without, as in the paper).
var Table1 = &Exhibit{Name: "table1", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title: "Table 1: scheme comparison, 4-user copy",
		Note: "paper shape: NoOrder fastest; SoftUpdates within a few % of NoOrder; alloc-init cost\n" +
			"ranges from ~4% (Soft Updates) to ~87% (Conventional)",
		Columns: []string{"Scheme", "AllocInit", "Elapsed (s)", "% of NoOrder",
			"CPU (s)", "Disk requests", "Avg response (ms)"},
	}
	type rowSpec struct {
		v         variant
		allocInit bool
	}
	var specs []rowSpec
	for _, s := range []fsim.Scheme{fsim.Conventional, fsim.SchedulerFlag,
		fsim.SchedulerChains, fsim.SoftUpdates} {
		for _, ai := range []bool{false, true} {
			specs = append(specs, rowSpec{schemeVariant(s, ai), ai})
		}
	}
	specs = append(specs, rowSpec{schemeVariant(fsim.NoOrder, false), false})
	// The post-paper schemes ride along without the alloc-init variant,
	// like No Order (their write disciplines are alloc-init-agnostic).
	specs = append(specs, rowSpec{schemeVariant(fsim.Journaling, false), false})
	specs = append(specs, rowSpec{schemeVariant(fsim.AsyncDurability, false), false})

	results := make([]copyStats, len(specs))
	var baseline fsim.Duration
	for i, spec := range specs {
		results[i] = get(copyCell(spec.v.opt, 4, cfg.Scale)).Copy
		if spec.v.opt.Scheme == fsim.NoOrder {
			baseline = results[i].elapsed
		}
	}
	for i, spec := range specs {
		cp := results[i]
		ai := "N"
		if spec.allocInit {
			ai = "Y"
		}
		t.AddRow(spec.v.opt.Scheme.String(), ai, secs(cp.elapsed), pct(cp.elapsed, baseline),
			secs(cp.stats.CPUTime), fmt.Sprintf("%d", cp.stats.DiskRequests),
			fmt.Sprintf("%.1f", cp.stats.AvgResponseMS))
	}
	return []Table{t}
}}

// schemeVariant builds a section 5 configuration with explicit alloc-init.
func schemeVariant(s fsim.Scheme, allocInit bool) variant {
	opt := fsim.Options{Scheme: s, Explicit: true, AllocInit: allocInit}
	switch s {
	case fsim.SchedulerFlag:
		opt.Sem, opt.NR, opt.CB = fsim.SemPart, true, true
	case fsim.SchedulerChains:
		opt.CB = true
	}
	return variant{s.String(), opt}
}

// Table2 reproduces table 2: scheme comparison under the 4-user remove
// benchmark (allocation initialization per the section 5 defaults).
var Table2 = &Exhibit{Name: "table2", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title: "Table 2: scheme comparison, 4-user remove",
		Note: "paper shape: Conventional ~10x NoOrder; SoftUpdates *faster* than NoOrder (deferred\n" +
			"removal); order-of-magnitude fewer disk requests for SoftUpdates/NoOrder",
		Columns: []string{"Scheme", "Elapsed (s)", "% of NoOrder", "CPU (s)",
			"Disk requests", "Avg response (ms)"},
	}
	results := make([]copyStats, len(fsim.Schemes))
	var baseline fsim.Duration
	for i, s := range fsim.Schemes {
		results[i] = get(copyRemoveCell(fsim.Options{Scheme: s}, 4, cfg.Scale)).RemoveRes
		if s == fsim.NoOrder {
			baseline = results[i].elapsed
		}
	}
	for i, s := range fsim.Schemes {
		rm := results[i]
		t.AddRow(s.String(), secs2(rm.elapsed), pct(rm.elapsed, baseline),
			secs2(rm.stats.CPUTime), fmt.Sprintf("%d", rm.stats.DiskRequests),
			fmt.Sprintf("%.1f", rm.stats.AvgResponseMS))
	}
	return []Table{t}
}}

// Table3 reproduces table 3: the Andrew benchmark's five phases under each
// scheme.
var Table3 = &Exhibit{Name: "table3", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title: "Table 3: Andrew benchmark (seconds per phase)",
		Note: "paper shape: phases 1-2 favor the non-conventional schemes; phases 3-4 are\n" +
			"practically indistinguishable; the compile phase dominates the total",
		Columns: []string{"Scheme", "(1) MakeDir", "(2) Copy", "(3) ScanDir",
			"(4) ReadAll", "(5) Compile", "Total"},
	}
	for _, s := range fsim.Schemes {
		times := get(Cell{Kind: CellAndrew, Opt: fsim.Options{Scheme: s}}).Andrew
		t.AddRow(s.String(), secs2(times.MakeDir), secs2(times.Copy), secs2(times.ScanDir),
			secs2(times.ReadAll), secs(times.Compile), secs(times.Total()))
	}
	return []Table{t}
}}

// ChainsAblation reproduces the section 3.2 comparison: the barrier
// fallback vs. tracked remove-dependencies for scheduler chains on the
// 4-user remove benchmark (the paper reports ~16% in favor of tracking).
var ChainsAblation = &Exhibit{Name: "chains-ablation", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title:   "Section 3.2 ablation: chains de-allocation handling, 4-user remove",
		Note:    "paper: the specific-dependency approach beats the barrier fallback by ~16%",
		Columns: []string{"Approach", "Elapsed (s)", "Avg response (ms)", "Disk requests"},
	}
	for _, v := range []variant{
		{"Barrier fallback", fsim.Options{Scheme: fsim.SchedulerChains, Explicit: true, CB: true, BarrierFrees: true}},
		{"Tracked dependencies", fsim.Options{Scheme: fsim.SchedulerChains, Explicit: true, CB: true}},
	} {
		rm := get(copyRemoveCell(v.opt, 4, cfg.Scale)).RemoveRes
		t.AddRow(v.name, secs2(rm.elapsed), fmt.Sprintf("%.0f", rm.stats.AvgResponseMS),
			fmt.Sprintf("%d", rm.stats.DiskRequests))
	}
	return []Table{t}
}}

// CBAblation reproduces the section 3.3 note that block copying helps
// scheduler chains as well (26% on 4-user copy, 57% on 4-user remove).
var CBAblation = &Exhibit{Name: "cb-ablation", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title:   "Section 3.3 ablation: scheduler chains with and without block copying",
		Note:    "paper: -CB reduces chains elapsed time by 26% (copy) and 57% (remove)",
		Columns: []string{"Configuration", "Copy elapsed (s)", "Remove elapsed (s)"},
	}
	for _, v := range []variant{
		{"Chains", fsim.Options{Scheme: fsim.SchedulerChains, Explicit: true}},
		{"Chains-CB", fsim.Options{Scheme: fsim.SchedulerChains, Explicit: true, CB: true}},
	} {
		res := get(copyRemoveCell(v.opt, 4, cfg.Scale))
		t.AddRow(v.name, secs(res.Copy.elapsed), secs2(res.RemoveRes.elapsed))
	}
	return []Table{t}
}}

// NVRAMComparison runs the section 7 forward-comparison the paper
// proposes: soft updates vs. NVRAM-protected metadata vs. the No Order
// bound, on the metadata-intensive copy+remove pair.
var NVRAMComparison = &Exhibit{Name: "nvram", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title: "Section 7 extension: soft updates vs NVRAM vs No Order",
		Note: "paper's prediction: NVRAM gives slight improvements over soft updates (less syncer\n" +
			"work) at much higher hardware cost; both track the No Order bound",
		Columns: []string{"Scheme", "Copy elapsed (s)", "Remove elapsed (s)",
			"Disk requests", "CPU (s)"},
	}
	for _, v := range []variant{
		{"Soft Updates", fsim.Options{Scheme: fsim.SoftUpdates}},
		{"NVRAM", fsim.Options{Scheme: fsim.NVRAM}},
		{"No Order", fsim.Options{Scheme: fsim.NoOrder}},
	} {
		res := get(copyRemoveCell(v.opt, 4, cfg.Scale))
		cp, rm := res.Copy, res.RemoveRes
		t.AddRow(v.name, secs(cp.elapsed), secs2(rm.elapsed),
			fmt.Sprintf("%d", cp.stats.DiskRequests+rm.stats.DiskRequests),
			secs2(cp.stats.CPUTime+rm.stats.CPUTime))
	}
	return []Table{t}
}}

// CacheSweep is the DESIGN.md D-decision sensitivity study: how the
// soft-updates-vs-conventional gap depends on buffer cache size (the
// paper's machine had 44 MB usable; the gap narrows as the cache shrinks
// and the workload becomes read-dominated for every scheme).
var CacheSweep = &Exhibit{Name: "cache-sweep", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title:   "Sensitivity: 4-user copy elapsed (s) vs buffer cache size",
		Note:    "ablation for DESIGN.md; not a paper exhibit",
		Columns: []string{"Scheme", "8 MB", "16 MB", "24 MB", "32 MB"},
	}
	sizes := []int{8 << 20, 16 << 20, 24 << 20, 32 << 20}
	for _, s := range []fsim.Scheme{fsim.Conventional, fsim.SoftUpdates, fsim.NoOrder} {
		row := []string{s.String()}
		for _, cb := range sizes {
			opt := fsim.Options{Scheme: s, CacheBytes: cb}
			cp := get(copyCell(opt, 4, cfg.Scale)).Copy
			row = append(row, secs(cp.elapsed))
		}
		t.AddRow(row...)
	}
	return []Table{t}
}}
