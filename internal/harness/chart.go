package harness

// Small ASCII charts, so the paper's figures come back as figures:
// horizontal bar charts for the elapsed-time comparisons (figures 1-4) and
// multi-series line charts for the throughput curves (figures 5-6).

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// bar is one horizontal bar.
type bar struct {
	label string
	value float64
}

// barChart renders labeled horizontal bars scaled to barWidth columns.
type barChart struct {
	title string
	unit  string
	bars  []bar
}

// barWidth is a bar chart's bar area width in characters.
const barWidth = 50

// fprint renders the chart.
func (c *barChart) fprint(w io.Writer) {
	var max float64
	labelW := 0
	for _, b := range c.bars {
		if b.value > max {
			max = b.value
		}
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	if max == 0 {
		max = 1
	}
	fmt.Fprintf(w, "\n%s\n", c.title)
	for _, b := range c.bars {
		n := int(b.value / max * float64(barWidth))
		if n < 1 && b.value > 0 {
			n = 1
		}
		fmt.Fprintf(w, "  %-*s |%s %.4g %s\n", labelW, b.label,
			strings.Repeat("#", n), b.value, c.unit)
	}
}

// series is one line in a line chart.
type series struct {
	name   string
	points []float64 // y values, one per shared x position
}

// lineChart renders multiple series over shared x labels on a character
// grid, one marker letter per series.
type lineChart struct {
	title   string
	xLabels []string
	yUnit   string
	series  []series
}

// lineHeight is a line chart's grid height in rows.
const lineHeight = 12

var markers = []byte{'*', 'o', '+', 'x', '@', '%', '&', '$'}

// fprint renders the chart.
func (c *lineChart) fprint(w io.Writer) {
	nx := len(c.xLabels)
	if nx == 0 {
		return
	}
	var ymax float64
	for _, s := range c.series {
		for _, v := range s.points {
			if v > ymax {
				ymax = v
			}
		}
	}
	if ymax == 0 {
		ymax = 1
	}
	// Round the axis top up to 2 significant digits for readable ticks.
	mag := math.Pow(10, math.Floor(math.Log10(ymax)))
	ymax = math.Ceil(ymax/mag*10) / 10 * mag

	colw := 8
	grid := make([][]byte, lineHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", nx*colw))
	}
	for si, s := range c.series {
		m := markers[si%len(markers)]
		for xi, v := range s.points {
			if xi >= nx {
				break
			}
			row := lineHeight - 1 - int(v/ymax*float64(lineHeight-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= lineHeight {
				row = lineHeight - 1
			}
			col := xi*colw + colw/2
			grid[row][col] = m
		}
	}
	fmt.Fprintf(w, "\n%s\n", c.title)
	for i, row := range grid {
		y := ymax * float64(lineHeight-1-i) / float64(lineHeight-1)
		fmt.Fprintf(w, "  %8.4g |%s\n", y, strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(w, "  %8s +%s\n", "", strings.Repeat("-", nx*colw))
	var xl strings.Builder
	for _, l := range c.xLabels {
		xl.WriteString(fmt.Sprintf("%-*s", colw, l))
	}
	fmt.Fprintf(w, "  %8s  %s(%s)\n", "", xl.String(), c.yUnit)
	for si, s := range c.series {
		fmt.Fprintf(w, "  %c = %s\n", markers[si%len(markers)], s.name)
	}
}
