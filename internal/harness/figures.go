package harness

import (
	"fmt"
	"io"
	"strconv"

	"metaupdate/fsim"
	"metaupdate/internal/workload"
)

// barChartOf builds a bar chart from a table's label and numeric column.
func barChartOf(title, unit string, t *Table, col int) func(io.Writer) {
	var bars []bar
	for _, row := range t.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			continue
		}
		bars = append(bars, bar{label: row[0], value: v})
	}
	c := &barChart{title: title, unit: unit, bars: bars}
	return c.fprint
}

// lineChartOf builds a line chart from a table whose columns 1..n are the
// series points.
func lineChartOf(title, unit string, t *Table, xlabels []string) func(io.Writer) {
	var lines []series
	for _, row := range t.Rows {
		pts := make([]float64, 0, len(row)-1)
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				v = 0
			}
			pts = append(pts, v)
		}
		lines = append(lines, series{name: row[0], points: pts})
	}
	c := &lineChart{title: title, xLabels: xlabels, yUnit: unit, series: lines}
	return c.fprint
}

// flagVariant builds a Scheduler Flag configuration.
func flagVariant(name string, sem fsim.FlagSemantics, nr, cb, ignore bool) variant {
	return variant{name, fsim.Options{
		Scheme: fsim.SchedulerFlag, Explicit: true,
		Sem: sem, NR: nr, CB: cb, IgnoreOrdering: ignore,
	}}
}

// copyCell declares the N-user copy benchmark cell for opt.
func copyCell(opt fsim.Options, users int, scale Scale) Cell {
	return Cell{Kind: CellCopy, Opt: opt, Users: users, Scale: scale}
}

// copyRemoveCell declares the paired copy+remove benchmark cell for opt.
func copyRemoveCell(opt fsim.Options, users int, scale Scale) Cell {
	return Cell{Kind: CellCopy, Opt: opt, Users: users, Scale: scale, Remove: true}
}

// Fig1 reproduces figure 1: the performance impact of ordering-flag
// semantics on the 4-user copy benchmark — elapsed time (a) and average
// disk access time (b). All variants use the block-copy enhancement, as in
// the paper's section 3 comparisons.
var Fig1 = &Exhibit{Name: "fig1", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	variants := []variant{
		flagVariant("Full", fsim.SemFull, false, true, false),
		flagVariant("Back", fsim.SemBack, false, true, false),
		flagVariant("Part", fsim.SemPart, false, true, false),
		flagVariant("Part-NR", fsim.SemPart, true, true, false),
		flagVariant("Ignore", fsim.SemPart, false, true, true),
	}
	t := Table{
		Title:   "Figure 1: ordering-flag semantics, 4-user copy",
		Note:    "paper: elapsed time falls monotonically Full -> Back -> Part -> Part-NR -> Ignore",
		Columns: []string{"Flag meaning", "Elapsed (s)", "Avg disk access (ms)", "Disk requests"},
	}
	for _, v := range variants {
		cp := get(copyCell(v.opt, 4, cfg.Scale)).Copy
		t.AddRow(v.name, secs(cp.elapsed), fmt.Sprintf("%.1f", cp.stats.AvgServiceMS),
			fmt.Sprintf("%d", cp.stats.DiskRequests))
	}
	t.Chart = barChartOf("figure 1a: elapsed time", "s", &t, 1)
	return []Table{t}
}}

// Fig2 reproduces figure 2: flag semantics under the 1-user remove
// benchmark — user-observed elapsed time (a) and average driver response
// time (b). With -NR, the *more* restrictive semantics win on response
// time, the paper's counter-intuitive result.
var Fig2 = &Exhibit{Name: "fig2", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	variants := []variant{
		flagVariant("Part", fsim.SemPart, false, true, false),
		flagVariant("Full-NR", fsim.SemFull, true, true, false),
		flagVariant("Back-NR", fsim.SemBack, true, true, false),
		flagVariant("Part-NR", fsim.SemPart, true, true, false),
		flagVariant("Ignore", fsim.SemPart, false, true, true),
	}
	t := Table{
		Title:   "Figure 2: ordering-flag semantics, 1-user remove",
		Note:    "paper: huge driver queues build up; -NR lets the user finish without draining them",
		Columns: []string{"Flag meaning", "Elapsed (s)", "Avg driver response (ms)", "Disk requests"},
	}
	for _, v := range variants {
		rm := get(copyRemoveCell(v.opt, 1, cfg.Scale)).RemoveRes
		t.AddRow(v.name, secs2(rm.elapsed), fmt.Sprintf("%.0f", rm.stats.AvgResponseMS),
			fmt.Sprintf("%d", rm.stats.DiskRequests))
	}
	t.Chart = barChartOf("figure 2a: user-observed elapsed time", "s", &t, 1)
	return []Table{t}
}}

// fig34Variants are the four Part implementations of figures 3 and 4.
func fig34Variants() []variant {
	return []variant{
		flagVariant("Part", fsim.SemPart, false, false, false),
		flagVariant("Part-NR", fsim.SemPart, true, false, false),
		flagVariant("Part-CB", fsim.SemPart, false, true, false),
		flagVariant("Part-NR/CB", fsim.SemPart, true, true, false),
	}
}

// Fig3 reproduces figure 3: implementation improvements (-NR read bypass,
// -CB block copying) for the ordering flag on the 4-user copy benchmark.
var Fig3 = &Exhibit{Name: "fig3", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title:   "Figure 3: flag implementation improvements, 4-user copy",
		Note:    "paper: Part-NR/CB is best; omitting either enhancement greatly reduces the benefit",
		Columns: []string{"Implementation", "Elapsed (s)", "CPU (s)", "Avg driver response (ms)"},
	}
	for _, v := range fig34Variants() {
		cp := get(copyCell(v.opt, 4, cfg.Scale)).Copy
		t.AddRow(v.name, secs(cp.elapsed), secs(cp.stats.CPUTime),
			fmt.Sprintf("%.0f", cp.stats.AvgResponseMS))
	}
	t.Chart = barChartOf("figure 3a: elapsed time", "s", &t, 1)
	return []Table{t}
}}

// Fig4 reproduces figure 4: the same four implementations under the 4-user
// remove benchmark, where the differences are more substantial.
var Fig4 = &Exhibit{Name: "fig4", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	t := Table{
		Title:   "Figure 4: flag implementation improvements, 4-user remove",
		Note:    "paper: same trends as figure 3 but more substantial; very large driver queues",
		Columns: []string{"Implementation", "Elapsed (s)", "CPU (s)", "Avg driver response (ms)"},
	}
	for _, v := range fig34Variants() {
		rm := get(copyRemoveCell(v.opt, 4, cfg.Scale)).RemoveRes
		t.AddRow(v.name, secs2(rm.elapsed), secs2(rm.stats.CPUTime),
			fmt.Sprintf("%.0f", rm.stats.AvgResponseMS))
	}
	t.Chart = barChartOf("figure 4a: elapsed time", "s", &t, 1)
	return []Table{t}
}}

// Fig5Kind selects the figure 5 sub-benchmark.
type Fig5Kind int

// Figure 5 sub-benchmarks.
const (
	Fig5Creates Fig5Kind = iota
	Fig5Removes
	Fig5CreateRemoves
)

// Fig5 reproduces figure 5: metadata update throughput (files/second) as a
// function of concurrent users for every scheme — (a) 1 KB creates,
// (b) removes, (c) create/removes. 10,000 files split among the users at
// full scale; allocation initialization only for Soft Updates.
var Fig5 = &Exhibit{Name: "fig5", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	userCounts := []int{1, 2, 4, 8}
	total := cfg.Scale.files(10000)
	kinds := []struct {
		kind  Fig5Kind
		title string
		note  string
	}{
		{Fig5Creates, "Figure 5a: 1KB file creates (files/second)",
			"paper: No Order and Soft Updates on top and rising with users; Conventional flat and lowest"},
		{Fig5Removes, "Figure 5b: 1KB file removes (files/second)",
			"paper: Soft Updates ~ No Order; Scheduler Chains more than doubles Conventional at 8 users"},
		{Fig5CreateRemoves, "Figure 5c: 1KB file create/removes (files/second)",
			"paper: No Order and Soft Updates proceed at memory speed, >5x the other three"},
	}
	var out []Table
	for _, k := range kinds {
		t := Table{Title: k.title, Note: k.note}
		t.Columns = []string{"Scheme"}
		for _, u := range userCounts {
			t.Columns = append(t.Columns, fmt.Sprintf("%d user(s)", u))
		}
		for _, s := range fsim.Schemes {
			row := []string{s.String()}
			for _, users := range userCounts {
				res := get(Cell{Kind: CellFig5, Opt: fsim.Options{Scheme: s}, Fig5: k.kind, Users: users, TotalFiles: total})
				row = append(row, fmt.Sprintf("%.1f", res.Throughput))
			}
			t.AddRow(row...)
		}
		xl := make([]string, len(userCounts))
		for i, u := range userCounts {
			xl[i] = fmt.Sprintf("%d", u)
		}
		t.Chart = lineChartOf(k.title+" — chart", "files/s vs users", &t, xl)
		out = append(out, t)
	}
	return out
}}

// Fig5Point runs one figure 5 data point and returns files per virtual
// second.
func Fig5Point(opt fsim.Options, kind Fig5Kind, users, totalFiles int) float64 {
	sys := mustSystem(opt)
	defer sys.Shutdown()
	per := totalFiles / users
	// Per-user working directories ("each user works in a separate
	// directory").
	sys.Run(func(p *fsim.Proc) {
		for u := 0; u < users; u++ {
			if _, err := sys.FS.Mkdir(p, fsim.RootIno, fmt.Sprintf("u%d", u)); err != nil {
				panic(err)
			}
		}
		sys.FS.Sync(p)
	})
	dirOf := func(p *fsim.Proc, u int) fsim.Ino {
		ino, err := sys.FS.Lookup(p, fsim.RootIno, fmt.Sprintf("u%d", u))
		if err != nil {
			panic(err)
		}
		return ino
	}

	if kind == Fig5Removes {
		// Populate outside the measurement window, then settle.
		sys.RunUsers(users, func(p *fsim.Proc, u int) {
			if err := workload.CreateFiles(p, sys.FS, dirOf(p, u), per, 1024); err != nil {
				panic(err)
			}
		})
		sys.Run(func(p *fsim.Proc) { sys.FS.Sync(p) })
	}

	sys.ResetStats()
	var wall fsim.Duration
	switch kind {
	case Fig5Creates:
		_, wall = sys.RunUsers(users, func(p *fsim.Proc, u int) {
			if err := workload.CreateFiles(p, sys.FS, dirOf(p, u), per, 1024); err != nil {
				panic(err)
			}
		})
	case Fig5Removes:
		_, wall = sys.RunUsers(users, func(p *fsim.Proc, u int) {
			if err := workload.RemoveFiles(p, sys.FS, dirOf(p, u), per); err != nil {
				panic(err)
			}
		})
	case Fig5CreateRemoves:
		_, wall = sys.RunUsers(users, func(p *fsim.Proc, u int) {
			if err := workload.CreateRemoveFiles(p, sys.FS, dirOf(p, u), per, 1024); err != nil {
				panic(err)
			}
		})
	}
	if wall <= 0 {
		return 0
	}
	return float64(per*users) / wall.Seconds()
}

// Fig6 reproduces figure 6: Sdet throughput (scripts/hour) as a function of
// script concurrency for every scheme.
var Fig6 = &Exhibit{Name: "fig6", Build: func(cfg Config, get func(Cell) CellResult) []Table {
	userCounts := []int{1, 2, 4, 6, 8}
	t := Table{
		Title: "Figure 6: Sdet throughput (scripts/hour)",
		Note:  "paper: No Order 50-70% over Conventional; Soft Updates within 2% of No Order; Flag +3-5%",
	}
	t.Columns = []string{"Scheme"}
	for _, u := range userCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d script(s)", u))
	}
	commands := cfg.Scale.files(workload.DefaultSdet().CommandsPerScript)
	for _, s := range fsim.Schemes {
		row := []string{s.String()}
		for _, users := range userCounts {
			res := get(Cell{Kind: CellSdet, Opt: fsim.Options{Scheme: s}, Users: users, Commands: commands})
			row = append(row, fmt.Sprintf("%.1f", float64(users)*3600/res.SdetWall.Seconds()))
		}
		t.AddRow(row...)
	}
	xl := make([]string, len(userCounts))
	for i, u := range userCounts {
		xl[i] = fmt.Sprintf("%d", u)
	}
	t.Chart = lineChartOf("figure 6 — chart", "scripts/hour vs concurrency", &t, xl)
	return []Table{t}
}}
