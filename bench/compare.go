package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison, from b's point of view relative to a.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares one (metric, workload) pair. A metric that repeats
// exactly (a virtual metric or a count) is compared exactly. Otherwise b
// is worse or better when its median moved past the bound, and the pair is
// unresolved when either side's min–max range is wider than the bound —
// the runs cannot resolve a difference that small — unless every run of
// one side beats every run of the other.
func judge(a, b sample, better string, bound float64) (rel float64, verdict string) {
	sign := 1.0 // positive rel = b is worse
	if better == higher {
		sign = -1
	}
	rel = sign * (b.Median - a.Median) / math.Abs(a.Median)
	if a.Min == a.Max && b.Min == b.Max {
		switch {
		case b.Median == a.Median:
			return rel, verdictSame
		case rel > 0:
			return rel, verdictWorse
		}
		return rel, verdictBetter
	}
	spread := math.Max((a.Max-a.Min)/math.Abs(a.Median), (b.Max-b.Min)/math.Abs(b.Median))
	if spread > bound {
		bAlwaysBetter := b.Max < a.Min
		bAlwaysWorse := b.Min > a.Max
		if better == higher {
			bAlwaysBetter, bAlwaysWorse = b.Min > a.Max, b.Max < a.Min
		}
		switch {
		case bAlwaysBetter:
			return rel, verdictBetter
		case bAlwaysWorse && rel > bound:
			return rel, verdictWorse
		}
		return rel, verdictUnresolved
	}
	switch {
	case rel > bound:
		return rel, verdictWorse
	case rel < -bound:
		return rel, verdictBetter
	}
	return rel, verdictSame
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaName)
	}
	return &r, nil
}

// runCompare prints, per (end-to-end metric, workload), both medians, the
// relative difference, the bound and the verdict. It returns 1 when any
// pair is worse or unresolved, so it can gate a change.
func runCompare(w io.Writer, pathA, pathB string) int {
	var sets [2]*results
	for i, path := range []string{pathA, pathB} {
		r, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = r
	}
	return compareResults(w, sets[0], sets[1])
}

func compareResults(w io.Writer, a, b *results) int {
	if a.Seed != b.Seed || a.Smoke != b.Smoke {
		fmt.Fprintf(w, "note: the two sets differ in seed (%d vs %d) or size (smoke %v vs %v); virtual metrics need not match\n",
			a.Seed, b.Seed, a.Smoke, b.Smoke)
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "b vs a", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from b\n", wa.Name)
			counts[verdictUnresolved]++
			continue
		}
		for _, d := range endToEnd() {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				continue
			}
			rel, v := judge(sa, sb, d.Better, d.Bound)
			counts[v]++
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, 100*rel, 100*d.Bound, v)
		}
		if wa.OpsFailed != wb.OpsFailed {
			fmt.Fprintf(w, "%-14s ops_failed %d vs %d\n", wa.Name, wa.OpsFailed, wb.OpsFailed)
		}
	}
	fmt.Fprintf(w, "\n%d same, %d better, %d worse, %d unresolved (b vs a: positive = b is worse)\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse]+counts[verdictUnresolved] > 0 {
		return 1
	}
	return 0
}
