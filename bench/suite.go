package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// runRep executes one repetition of w. A traced repetition turns the
// program's operation recorder on, profiles the timed phases and records
// spans; an untraced one only reads the clock.
func runRep(w workloadDef, sz sizes, seed int64, tr *tracer) *rep {
	traced := tr != nil
	r := newRep()
	m := &meter{r: r, workload: w.name, tr: tr, deadline: sz.deadline}
	if traced {
		m.prof = &profiler{}
	}
	sp := tr.begin(nil, w.name, "workload", nil)
	t0 := time.Now()
	w.run(m, sz, seed, traced)
	// Set-up is everything outside the timed phases, check included, so
	// work moved out of a timed phase still shows.
	r.setupS = time.Since(t0).Seconds() - r.wallS
	tr.end(sp, nil)
	if _, ok := r.exact["sim.events"]; !ok {
		r.exact["sim.events"] = float64(r.units)
	}
	if traced {
		shares, other, err := attributeProfiles(m.prof.done)
		if err != nil {
			r.failf("%s: cpu profile: %v", w.name, err)
		}
		for l, s := range shares {
			r.host["host_share."+l] = s
		}
		if len(other) > 0 {
			fmt.Printf("  %s: host_share.other fed by packages %v\n", w.name, other)
		}
	}
	return r
}

// sample is a host-clock metric over the repetitions of one workload.
type sample struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newSample(unit string, vals []float64) sample {
	s := sample{Unit: unit, N: len(vals), Samples: vals, Median: median(vals)}
	s.Min, s.Max = vals[0], vals[0]
	for _, v := range vals {
		s.Min, s.Max = math.Min(s.Min, v), math.Max(s.Max, v)
	}
	return s
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// value is a per-layer metric, taken from the single traced repetition.
type value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadResult is one workload's section of results.json.
type workloadResult struct {
	Name         string            `json:"name"`
	Loop         string            `json:"loop"`
	Reps         int               `json:"reps"`
	OpsAttempted int64             `json:"ops_attempted"`
	OpsFailed    int64             `json:"ops_failed"`
	Correct      bool              `json:"correct"`
	Failures     []string          `json:"failures,omitempty"`
	EndToEnd     map[string]sample `json:"end_to_end"`
	PerLayer     map[string]value  `json:"per_layer,omitempty"`

	standIn map[string]float64 // driver runs only, see rep.standIn
}

// exactEqual reports the keys on which two exact maps differ. A key
// missing from a is skipped: the untraced side has no obs.* shares.
func exactEqual(a, b map[string]float64) []string {
	var diff []string
	for _, k := range sortedKeys(a) {
		if vb, ok := b[k]; !ok || vb != a[k] {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", k, a[k], b[k]))
		}
	}
	return diff
}

// exactDiffs lists where b departs from a in anything that must repeat bit
// for bit.
func exactDiffs(a, b *rep) []string {
	d := exactEqual(a.virt, b.virt)
	d = append(d, exactEqual(a.exact, b.exact)...)
	return append(d, exactEqual(a.standIn, b.standIn)...)
}

// summarize folds a workload's untraced repetitions (and its traced one,
// if any) into its result, running the repeat-exactly checks: every
// virtual metric and exact count must be identical across repetitions and
// between the traced and untraced runs.
func summarize(w workloadDef, reps []*rep, traced *rep, micro map[string]float64) workloadResult {
	res := workloadResult{Name: w.name, Loop: w.loop, Reps: len(reps), EndToEnd: map[string]sample{}}
	first := reps[0]
	var setup, wall, rate, alloc []float64
	for i, r := range reps {
		res.OpsAttempted += r.attempted
		res.OpsFailed += r.failed
		res.Failures = append(res.Failures, r.errs...)
		setup = append(setup, r.setupS)
		wall = append(wall, r.wallS)
		rate = append(rate, ratio(float64(r.units), r.wallS))
		alloc = append(alloc, float64(r.allocBytes)/(1<<20))
		if i > 0 {
			for _, d := range exactDiffs(first, r) {
				res.Failures = append(res.Failures, fmt.Sprintf("%s: repetition %d differs from repetition 1: %s", w.name, i+1, d))
			}
		}
	}
	res.EndToEnd["setup_s"] = newSample("s", setup)
	res.EndToEnd["host_wall_s"] = newSample("s", wall)
	res.EndToEnd["units_per_host_s"] = newSample("1/s", rate)
	res.EndToEnd["host_alloc_mb"] = newSample("MB", alloc)
	// The virtual metrics: a sample of identical values where the workload
	// defines the metric, a stand-in for driver runs where it does not. A
	// workload may not leave a name out.
	for _, d := range endToEnd()[len(hostMetrics):] {
		from := first.standIn
		if definedOn(d.Name, w.name) {
			from = first.virt
			vals := make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = r.virt[d.Name]
			}
			res.EndToEnd[d.Name] = newSample(d.Unit, vals)
		}
		if !(from[d.Name] > 0) {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %s = %v, want a positive value", w.name, d.Name, from[d.Name]))
		}
	}
	if traced != nil {
		res.Failures = append(res.Failures, traced.errs...)
		for _, d := range exactDiffs(first, traced) {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: traced run differs from untraced: %s", w.name, d))
		}
		traced.host["obs.overhead_ratio"] = ratio(traced.wallS, median(wall))
		res.PerLayer = map[string]value{}
		for _, d := range perLayer() {
			v := traced.exact[d.Name] + traced.host[d.Name] + micro[d.Name] // at most one map holds the name
			res.PerLayer[d.Name] = value{d.Unit, v}
		}
	}
	res.Correct = len(res.Failures) == 0
	return res
}

// print writes the workload's metrics by name, each with its unit and
// sample count.
func (res *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s (%s): ops_attempted %d  ops_failed %d  correct %v\n",
		res.Name, res.Loop, res.OpsAttempted, res.OpsFailed, res.Correct)
	for _, d := range endToEnd() {
		s, ok := res.EndToEnd[d.Name]
		if !ok {
			continue
		}
		if strings.HasPrefix(d.Name, "v_") {
			fmt.Fprintf(w, "  %-28s %14.6g %-7s n=%d (exact)\n", d.Name, s.Median, s.Unit, s.N)
		} else {
			fmt.Fprintf(w, "  %-28s %14.6g %-7s n=%d  min %.6g  max %.6g\n", d.Name, s.Median, s.Unit, s.N, s.Min, s.Max)
		}
	}
	for _, k := range sortedKeys(res.standIn) {
		fmt.Fprintf(w, "  %-28s %14.6g  (stand-in for the driver: not a metric of this workload)\n", k, res.standIn[k])
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "  per-layer (traced run):\n")
		for _, d := range perLayer() {
			if v := res.PerLayer[d.Name]; v.Value != 0 {
				fmt.Fprintf(w, "    %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
}
