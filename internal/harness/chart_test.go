package harness

import (
	"strings"
	"testing"
)

func TestBarChartRendersAllBars(t *testing.T) {
	c := barChart{
		title: "elapsed",
		unit:  "s",
		bars: []bar{
			{"Conventional", 80.2},
			{"Soft Updates", 6.7},
			{"No Order", 7.6},
		},
	}
	var sb strings.Builder
	c.fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Conventional", "Soft Updates", "No Order", "80.2", "6.7", "elapsed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The largest value owns the longest bar.
	lines := strings.Split(out, "\n")
	longest, conv := 0, 0
	for _, l := range lines {
		n := strings.Count(l, "#")
		if n > longest {
			longest = n
		}
		if strings.Contains(l, "Conventional") {
			conv = n
		}
	}
	if conv != longest {
		t.Fatalf("largest value does not have the longest bar:\n%s", out)
	}
}

func TestBarChartTinyValuesVisible(t *testing.T) {
	c := barChart{title: "t", bars: []bar{{"big", 1000}, {"tiny", 0.5}}}
	var sb strings.Builder
	c.fprint(&sb)
	for _, l := range strings.Split(sb.String(), "\n") {
		if strings.Contains(l, "tiny") && !strings.Contains(l, "#") {
			t.Fatal("non-zero value rendered with no bar")
		}
	}
}

func TestBarChartAllZeros(t *testing.T) {
	c := barChart{title: "z", bars: []bar{{"a", 0}, {"b", 0}}}
	var sb strings.Builder
	c.fprint(&sb) // must not divide by zero
	if !strings.Contains(sb.String(), "a") {
		t.Fatal("labels missing")
	}
}

func TestLineChartRendersSeriesAndLegend(t *testing.T) {
	c := lineChart{
		title:   "throughput",
		xLabels: []string{"1", "2", "4", "8"},
		yUnit:   "files/s",
		series: []series{
			{"No Order", []float64{20, 35, 50, 60}},
			{"Conventional", []float64{18, 19, 20, 20}},
		},
	}
	var sb strings.Builder
	c.fprint(&sb)
	out := sb.String()
	for _, want := range []string{"throughput", "No Order", "Conventional", "files/s", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// The rising series' marker must appear above the flat one somewhere
	// in the grid (grid rows are the ones containing " |").
	starRow, oRow := -1, -1
	for i, l := range strings.Split(out, "\n") {
		bar := strings.Index(l, "|")
		if bar < 0 {
			continue
		}
		grid := l[bar:]
		if starRow == -1 && strings.Contains(grid, "*") {
			starRow = i
		}
		if oRow == -1 && strings.Contains(grid, "o") {
			oRow = i
		}
	}
	if starRow == -1 || oRow == -1 || starRow > oRow {
		t.Fatalf("series rows wrong (star %d, o %d):\n%s", starRow, oRow, out)
	}
}

func TestLineChartEmptyX(t *testing.T) {
	c := lineChart{title: "e"}
	var sb strings.Builder
	c.fprint(&sb) // no panic, no output
	if sb.Len() != 0 {
		t.Fatal("expected no output for empty chart")
	}
}
