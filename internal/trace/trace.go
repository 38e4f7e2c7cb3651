// Package trace analyzes the per-request I/O traces the instrumented
// device driver collects — the reproduction of the paper's measurement
// methodology ("we have instrumented the device driver to collect I/O
// traces, including per-request queue and service delays"). It computes
// the distributions behind the paper's reported averages and exports raw
// traces as CSV for external plotting.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/sim"
)

// Summary condenses one trace window.
type Summary struct {
	Requests int
	Reads    int
	Writes   int
	CacheHit int

	Service  Dist
	Queue    Dist
	Response Dist
}

// Dist holds distribution statistics in milliseconds.
type Dist struct {
	MeanMS float64
	P50MS  float64
	P90MS  float64
	P99MS  float64
	// P999MS is the 99.9th percentile — the open-loop load curves compare
	// schemes by how early this tail diverges as offered load approaches
	// capacity.
	P999MS float64
	MaxMS  float64
}

func distOf(vals []float64) Dist {
	if len(vals) == 0 {
		return Dist{}
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	pct := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		return vals[idx]
	}
	return Dist{
		MeanMS: sum / float64(len(vals)),
		P50MS:  pct(0.50),
		P90MS:  pct(0.90),
		P99MS:  pct(0.99),
		P999MS: pct(0.999),
		MaxMS:  vals[len(vals)-1],
	}
}

// Digest accumulates latency samples (milliseconds) for percentile
// reporting. It keeps every raw sample, so its percentiles are exact and
// digests merge exactly — the merged distribution equals the distribution
// of the concatenated sample sets — unlike sketch-based digests. Sample
// counts are bounded by the operations of one experiment cell, so
// exactness is cheap.
type Digest struct {
	vals []float64
}

// Add records one sample.
func (d *Digest) Add(ms float64) { d.vals = append(d.vals, ms) }

// Count returns the number of samples.
func (d *Digest) Count() int { return len(d.vals) }

// Dist computes the distribution of the samples. The digest is
// unchanged (distOf sorts its argument, so Dist works on a copy) and may
// keep accumulating.
func (d *Digest) Dist() Dist {
	return distOf(append([]float64(nil), d.vals...))
}

// Analyze summarizes a request trace.
func Analyze(stats []dev.Stat) Summary {
	s := Summary{Requests: len(stats)}
	service := make([]float64, 0, len(stats))
	queue := make([]float64, 0, len(stats))
	response := make([]float64, 0, len(stats))
	for _, st := range stats {
		if st.Op == disk.Read {
			s.Reads++
		} else {
			s.Writes++
		}
		if st.CacheHit {
			s.CacheHit++
		}
		service = append(service, st.Service.Milliseconds())
		queue = append(queue, st.Queue.Milliseconds())
		response = append(response, st.Response.Milliseconds())
	}
	s.Service = distOf(service)
	s.Queue = distOf(queue)
	s.Response = distOf(response)
	return s
}

// Fprint renders the summary as text.
func (s Summary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "requests: %d (%d reads, %d writes, %d drive-cache hits)\n",
		s.Requests, s.Reads, s.Writes, s.CacheHit)
	row := func(name string, d Dist) {
		fmt.Fprintf(w, "  %-9s mean %8.2fms  p50 %8.2fms  p90 %8.2fms  p99 %8.2fms  max %8.2fms\n",
			name, d.MeanMS, d.P50MS, d.P90MS, d.P99MS, d.MaxMS)
	}
	row("service", s.Service)
	row("queue", s.Queue)
	row("response", s.Response)
}

// Histogram is a log-scaled latency histogram.
type Histogram struct {
	// UpperMS[i] is the inclusive upper bound of bucket i; the final
	// bucket is unbounded.
	UpperMS []float64
	Counts  []int
}

// NewLatencyHistogram returns the standard 0.5ms..10s log-ish buckets.
func NewLatencyHistogram() *Histogram {
	return &Histogram{
		UpperMS: []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000},
		Counts:  make([]int, 15),
	}
}

// Add records one latency.
func (h *Histogram) Add(d sim.Duration) {
	ms := d.Milliseconds()
	for i, ub := range h.UpperMS {
		if ms <= ub {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Fprint renders the histogram with proportional bars.
func (h *Histogram) Fprint(w io.Writer, title string) {
	fmt.Fprintf(w, "%s (%d samples)\n", title, h.Total())
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return
	}
	label := func(i int) string {
		if i == 0 {
			return fmt.Sprintf("<= %.1fms", h.UpperMS[0])
		}
		if i == len(h.Counts)-1 {
			return fmt.Sprintf(" > %.0fms", h.UpperMS[len(h.UpperMS)-1])
		}
		return fmt.Sprintf("<= %.0fms", h.UpperMS[i])
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bar := c * 40 / max
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  %10s %7d %s\n", label(i), c, bars(bar))
	}
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

// ServiceHistogram builds the service-time histogram of a trace.
func ServiceHistogram(stats []dev.Stat) *Histogram {
	h := NewLatencyHistogram()
	for _, st := range stats {
		h.Add(st.Service)
	}
	return h
}

// ResponseHistogram builds the driver-response histogram of a trace.
func ResponseHistogram(stats []dev.Stat) *Histogram {
	h := NewLatencyHistogram()
	for _, st := range stats {
		h.Add(st.Response)
	}
	return h
}

// WriteCSV exports the raw trace, one request per row.
func WriteCSV(w io.Writer, stats []dev.Stat) error {
	if _, err := fmt.Fprintln(w, "id,op,sectors,queue_ms,service_ms,response_ms,cache_hit"); err != nil {
		return err
	}
	for _, st := range stats {
		hit := 0
		if st.CacheHit {
			hit = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%.3f,%.3f,%.3f,%d\n",
			st.ID, st.Op, st.Sectors, st.Queue.Milliseconds(), st.Service.Milliseconds(),
			st.Response.Milliseconds(), hit); err != nil {
			return err
		}
	}
	return nil
}
