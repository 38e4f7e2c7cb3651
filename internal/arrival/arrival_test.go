package arrival

import (
	"math"
	"testing"

	"metaupdate/internal/sim"
)

// gapSample materializes n gaps in seconds.
func gapSample(s Spec, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(s.GapAt(int64(i))) / float64(sim.Second)
	}
	return out
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

// TestPoissonMoments pins the exponential inter-arrival moments at
// n = 100k: sample mean within 2% of 1/lambda and sample variance within
// 5% of 1/lambda^2. The seed is fixed, so these are exact reproducible
// checks, not flaky statistical tolerances.
func TestPoissonMoments(t *testing.T) {
	const rate = 200.0
	gaps := gapSample(Spec{Kind: Poisson, Seed: 7, PerSec: 200}, 100_000)
	mean, variance := meanVar(gaps)
	if got, want := mean, 1/rate; math.Abs(got-want)/want > 0.02 {
		t.Errorf("sample mean %.6f, want within 2%% of %.6f", got, want)
	}
	if got, want := variance, 1/(rate*rate); math.Abs(got-want)/want > 0.05 {
		t.Errorf("sample variance %.8f, want within 5%% of %.8f", got, want)
	}
}

// dispersion bins the arrival count process into windows of `win` mean
// inter-arrival times and returns var(count)/mean(count).
func dispersion(s Spec, n, win int) float64 {
	g := NewGen(s)
	width := sim.Time(win) * sim.Time(float64(sim.Second)/float64(s.PerSec))
	var counts []float64
	bin, c := sim.Time(width), 0.0
	for i := 0; i < n; i++ {
		at := g.Next()
		for at > bin {
			counts = append(counts, c)
			c, bin = 0, bin+width
		}
		c++
	}
	m, v := meanVar(counts)
	return v / m
}

// TestIndexOfDispersion: Poisson counts have dispersion ~= 1. The fixed
// seed makes the threshold exact.
func TestIndexOfDispersion(t *testing.T) {
	if d := dispersion(Spec{Kind: Poisson, Seed: 11, PerSec: 500}, 100_000, 20); d < 0.9 || d > 1.1 {
		t.Errorf("Poisson index of dispersion %.3f, want ~1 (0.9..1.1)", d)
	}
}

// TestPoissonChiSquared buckets 100k gaps into 20 equiprobable cells by
// the exponential quantile function and checks the chi-squared statistic
// against the df=19 distribution (99.9th percentile ~= 43.8). With the
// seed fixed the statistic is a constant, so a pass is exact, not
// probabilistic.
func TestPoissonChiSquared(t *testing.T) {
	const (
		rate = 200.0
		n    = 100_000
		k    = 20
	)
	spec := Spec{Kind: Poisson, Seed: 3, PerSec: 200}
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		gap := float64(spec.GapAt(int64(i))) / float64(sim.Second)
		// CDF of Exp(rate): bucket by floor(F(gap)*k).
		b := int(math.Floor((1 - math.Exp(-rate*gap)) * k))
		if b >= k {
			b = k - 1
		}
		counts[b]++
	}
	expect := float64(n) / k
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 43.8 {
		t.Errorf("chi-squared %.1f exceeds the df=19 99.9th percentile 43.8 (buckets %v)", chi2, counts)
	}
}

// TestPureFunctionOfIndex pins the package's core contract: GapAt is a
// pure function of (Spec, index) — calling it out of order, repeatedly, or
// resuming a Gen from the middle reproduces the same sequence.
func TestPureFunctionOfIndex(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: Poisson, Seed: 42, PerSec: 300},
	} {
		g := NewGen(spec)
		const n = 4096
		times := make([]sim.Time, n)
		for i := range times {
			times[i] = g.Next()
		}
		// Replay from the middle: prefix time + summed tail gaps must match.
		mid := n / 2
		at := times[mid-1]
		for i := mid; i < n; i++ {
			at += sim.Time(spec.GapAt(int64(i)))
			if at != times[i] {
				t.Fatalf("%v: replay from index %d diverges at %d: %v != %v", spec.Kind, mid, i, at, times[i])
			}
		}
		// Out-of-order and repeated calls.
		for _, i := range []int64{n - 1, 0, 17, 17, 3} {
			want := times[i] - func() sim.Time {
				if i == 0 {
					return 0
				}
				return times[i-1]
			}()
			if got := sim.Time(spec.GapAt(i)); got != want {
				t.Fatalf("%v: GapAt(%d) = %v out of order, want %v", spec.Kind, i, got, want)
			}
		}
		// Arrival instants are strictly increasing (gaps are clamped >= 1ns).
		for i := 1; i < n; i++ {
			if times[i] <= times[i-1] {
				t.Fatalf("%v: arrivals not strictly increasing at %d", spec.Kind, i)
			}
		}
	}
}

// TestSpecString pins the canonical fingerprint forms.
func TestSpecString(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "off"},
		{Spec{Kind: Poisson, Seed: 5, PerSec: 100}, "poisson:seed5,rate100"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestAllocFreeDraws guards the generator hot path: next-arrival draws
// must not allocate (CI runs this normally and under -race).
func TestAllocFreeDraws(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: Poisson, Seed: 1, PerSec: 1000},
	} {
		spec := spec
		g := NewGen(spec)
		var i int64
		if n := testing.AllocsPerRun(200, func() {
			g.Next()
			spec.GapAt(i)
			i++
		}); n != 0 {
			t.Errorf("%v: next-arrival draw allocates %.1f/op, want 0", spec.Kind, n)
		}
	}
}
