package trace

import (
	"strings"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/sim"
)

func mkStat(op disk.Op, qMS, sMS float64) dev.Stat {
	return dev.Stat{
		Op:       op,
		Sectors:  16,
		Queue:    sim.Duration(qMS * float64(sim.Millisecond)),
		Service:  sim.Duration(sMS * float64(sim.Millisecond)),
		Response: sim.Duration((qMS + sMS) * float64(sim.Millisecond)),
	}
}

func TestAnalyzeCounts(t *testing.T) {
	stats := []dev.Stat{
		mkStat(disk.Read, 1, 10),
		mkStat(disk.Write, 2, 20),
		mkStat(disk.Write, 3, 30),
	}
	s := Analyze(stats)
	if s.Requests != 3 || s.Reads != 1 || s.Writes != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Service.MeanMS != 20 {
		t.Errorf("mean service %.2f, want 20", s.Service.MeanMS)
	}
	if s.Service.MaxMS != 30 || s.Response.MaxMS != 33 {
		t.Errorf("max service %.2f / response %.2f", s.Service.MaxMS, s.Response.MaxMS)
	}
	if s.Service.P50MS != 20 {
		t.Errorf("p50 %.2f, want 20", s.Service.P50MS)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(nil)
	if s.Requests != 0 || s.Service.MeanMS != 0 {
		t.Fatalf("empty trace: %+v", s)
	}
	var sb strings.Builder
	s.Fprint(&sb) // must not panic
}

func TestPercentilesOrdered(t *testing.T) {
	var stats []dev.Stat
	for i := 1; i <= 100; i++ {
		stats = append(stats, mkStat(disk.Write, 0, float64(i)))
	}
	s := Analyze(stats)
	if s.Service.P50MS != 50 || s.Service.P90MS != 90 || s.Service.P99MS != 99 {
		t.Fatalf("percentiles: %+v", s.Service)
	}
	if !(s.Service.P50MS <= s.Service.P90MS && s.Service.P90MS <= s.Service.P99MS &&
		s.Service.P99MS <= s.Service.MaxMS) {
		t.Fatal("percentiles not monotone")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(100 * sim.Microsecond) // <= 0.5ms
	h.Add(3 * sim.Millisecond)   // <= 5ms
	h.Add(15 * sim.Millisecond)  // <= 20ms
	h.Add(60 * sim.Second)       // > 10s, last bucket
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[3] != 1 || h.Counts[5] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", h.Counts)
	}
	var sb strings.Builder
	h.Fprint(&sb, "latency")
	out := sb.String()
	if !strings.Contains(out, "latency (4 samples)") || !strings.Contains(out, "#") {
		t.Fatalf("render: %s", out)
	}
}

func TestHistogramsFromStats(t *testing.T) {
	stats := []dev.Stat{mkStat(disk.Read, 5, 8), mkStat(disk.Write, 500, 12)}
	if ServiceHistogram(stats).Total() != 2 {
		t.Fatal("service histogram count")
	}
	rh := ResponseHistogram(stats)
	if rh.Total() != 2 {
		t.Fatal("response histogram count")
	}
}

// TestDistOfEdges pins the nearest-rank percentile definition on its edge
// cases: the p-th percentile of n sorted samples is the value at rank
// ceil(p*n) (1-based) — the smallest sample with at least p·n samples at
// or below it. In particular a single sample is every percentile, the p50
// of two samples is the lower one, and runs of ties collapse onto the
// tied value.
func TestDistOfEdges(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want Dist
	}{
		{"empty", nil, Dist{}},
		{"single", []float64{7}, Dist{MeanMS: 7, P50MS: 7, P90MS: 7, P99MS: 7, P999MS: 7, MaxMS: 7}},
		{"two samples takes lower p50", []float64{10, 20},
			Dist{MeanMS: 15, P50MS: 10, P90MS: 20, P99MS: 20, P999MS: 20, MaxMS: 20}},
		{"unsorted input", []float64{30, 10, 20},
			Dist{MeanMS: 20, P50MS: 20, P90MS: 30, P99MS: 30, P999MS: 30, MaxMS: 30}},
		// n=4: p50 rank ceil(2)=2 → the tied 1; p90 rank ceil(3.6)=4 → 9.
		{"ties at the boundary", []float64{1, 1, 1, 9},
			Dist{MeanMS: 3, P50MS: 1, P90MS: 9, P99MS: 9, P999MS: 9, MaxMS: 9}},
		// n=10 of 10..100: p50 rank 5 → 50, p90 rank 9 → 90, p99 rank 10.
		{"deciles", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
			Dist{MeanMS: 55, P50MS: 50, P90MS: 90, P99MS: 100, P999MS: 100, MaxMS: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := distOf(append([]float64(nil), tc.vals...)); got != tc.want {
				t.Errorf("distOf(%v) = %+v, want %+v", tc.vals, got, tc.want)
			}
		})
	}
}

// TestDistOfPercentileRankExact sweeps n=1..100 over the identity sample
// set 1..n and checks the nearest-rank formula directly, so any
// off-by-one in the index arithmetic fails loudly.
func TestDistOfPercentileRankExact(t *testing.T) {
	rank := func(p float64, n int) float64 {
		r := int(float64(n)*p + 0.9999999) // ceil for the exact products used here
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		return float64(r)
	}
	for n := 1; n <= 100; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		d := distOf(vals)
		if want := rank(0.50, n); d.P50MS != want {
			t.Fatalf("n=%d: p50 = %v, want %v", n, d.P50MS, want)
		}
		if want := rank(0.90, n); d.P90MS != want {
			t.Fatalf("n=%d: p90 = %v, want %v", n, d.P90MS, want)
		}
		if want := rank(0.99, n); d.P99MS != want {
			t.Fatalf("n=%d: p99 = %v, want %v", n, d.P99MS, want)
		}
		if d.MaxMS != float64(n) {
			t.Fatalf("n=%d: max = %v", n, d.MaxMS)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Total() != 0 {
		t.Fatalf("fresh histogram Total = %d", h.Total())
	}
	var sb strings.Builder
	h.Fprint(&sb, "empty") // must not panic or divide by zero
	// Boundary values land in the bucket whose upper bound they equal
	// (bounds are inclusive).
	h.Add(500 * sim.Microsecond) // == 0.5ms bound → bucket 0
	h.Add(1 * sim.Millisecond)   // == 1ms bound → bucket 1
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("inclusive bounds: %v", h.Counts)
	}
	h.Add(0) // below every bound → first bucket
	if h.Counts[0] != 2 {
		t.Fatalf("zero sample: %v", h.Counts)
	}
	// One bucket past the last bound: everything enormous falls through.
	h.Add(10*sim.Second + 1)
	h.Add(sim.Duration(1) << 50)
	last := len(h.Counts) - 1
	if h.Counts[last] != 2 {
		t.Fatalf("overflow bucket: %v", h.Counts)
	}
	if len(h.Counts) != len(h.UpperMS)+1 {
		t.Fatalf("%d counts for %d bounds", len(h.Counts), len(h.UpperMS))
	}
}

func TestDigestAccumulate(t *testing.T) {
	var d Digest
	if d.Count() != 0 {
		t.Fatalf("fresh digest Count = %d", d.Count())
	}
	if got := d.Dist(); got != (Dist{}) {
		t.Fatalf("fresh digest Dist = %+v", got)
	}
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	if d.Count() != 3 {
		t.Fatalf("Count = %d, want 3", d.Count())
	}
	first := d.Dist()
	if first.P50MS != 2 || first.MaxMS != 3 || first.MeanMS != 2 {
		t.Fatalf("Dist = %+v", first)
	}
	// Dist must not mutate the digest: repeated calls agree, and the
	// digest keeps accumulating afterwards.
	if again := d.Dist(); again != first {
		t.Fatalf("second Dist = %+v, first = %+v", again, first)
	}
	d.Add(10)
	if got := d.Dist(); got.MaxMS != 10 || got.MeanMS != 4 {
		t.Fatalf("Dist after further Add = %+v", got)
	}
}

func TestDigestMergeIsConcatenation(t *testing.T) {
	var a, b, all Digest
	for _, v := range []float64{5, 1, 9} {
		a.Add(v)
		all.Add(v)
	}
	for _, v := range []float64{2, 8} {
		b.Add(v)
		all.Add(v)
	}
	bBefore := b.Dist()
	a.Merge(&b)
	if a.Count() != 5 {
		t.Fatalf("merged Count = %d, want 5", a.Count())
	}
	if got, want := a.Dist(), all.Dist(); got != want {
		t.Fatalf("merged Dist = %+v, concatenated = %+v", got, want)
	}
	if b.Dist() != bBefore || b.Count() != 2 {
		t.Fatal("Merge mutated its argument")
	}
	// Merging an empty digest is a no-op in both directions.
	var empty Digest
	a.Merge(&empty)
	if a.Count() != 5 {
		t.Fatal("merging an empty digest changed the count")
	}
	empty.Merge(&a)
	if empty.Count() != 5 {
		t.Fatal("merging into an empty digest lost samples")
	}
}

func TestWriteCSV(t *testing.T) {
	stats := []dev.Stat{mkStat(disk.Read, 1.5, 10), mkStat(disk.Write, 0, 5)}
	var sb strings.Builder
	if err := WriteCSV(&sb, stats); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0] != "id,op,sectors,queue_ms,service_ms,response_ms,cache_hit" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,read,16,1.500,10.000,11.500,") {
		t.Fatalf("row: %s", lines[1])
	}
}
