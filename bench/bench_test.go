package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs the whole benchmark at tiny sizes — six workloads, three
// repetitions, the traced run, every output check — on two seeds. No
// timing is asserted; what must hold is that every check passes and every
// named metric is produced where it is defined, and only there.
func TestSmoke(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		dir := t.TempDir()
		if code := suiteRun(seed, true, dir); code != 0 {
			t.Fatalf("seed %d: suiteRun exited %d", seed, code)
		}
		res, err := loadResults(filepath.Join(dir, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Workloads) != len(workloads) {
			t.Fatalf("seed %d: %d workloads in results, want %d", seed, len(res.Workloads), len(workloads))
		}
		for _, w := range res.Workloads {
			if !w.Correct || w.OpsAttempted < 1 {
				t.Errorf("seed %d %s: correct=%v attempted=%d failures=%v", seed, w.Name, w.Correct, w.OpsAttempted, w.Failures)
			}
			for _, d := range endToEnd() {
				s, ok := w.EndToEnd[d.Name]
				switch {
				case !definedOn(d.Name, w.Name):
					if ok {
						t.Errorf("seed %d %s: end-to-end metric %s reported, but it is not defined on this workload", seed, w.Name, d.Name)
					}
				case !ok || s.N != 3 || !(s.Median > 0):
					t.Errorf("seed %d %s: end-to-end metric %s = %+v, want a positive median of 3 samples", seed, w.Name, d.Name, s)
				}
			}
			var shares float64
			for _, d := range perLayer() {
				v, ok := w.PerLayer[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("seed %d %s: per-layer metric %s missing or not finite", seed, w.Name, d.Name)
				}
				if len(d.Name) > 11 && d.Name[:11] == "host_share." {
					shares += v.Value
				}
			}
			// A smoke cell can be shorter than the profiler's 10 ms period:
			// a workload on which no sample landed has no shares at all.
			if math.Abs(shares-1) > 1e-9 && shares != 0 {
				t.Errorf("seed %d %s: host_share.* sums to %v, want 1", seed, w.Name, shares)
			}
			offCluster := w.Name != "dist-cluster"
			for _, name := range []string{"dmeta.cross_ops", "simnet.msgs", "simnet.mbytes"} {
				if v := w.PerLayer[name].Value; offCluster != (v == 0) {
					t.Errorf("seed %d %s: %s = %v; it must be non-zero on dist-cluster only", seed, w.Name, name, v)
				}
			}
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("trace.json: %v", err)
		}
		if len(tr.TraceEvents) < len(workloads)*len(schemes) {
			t.Errorf("trace.json holds %d spans, want at least one per cell", len(tr.TraceEvents))
		}
		// A set of runs never differs from itself; smoke timings may be
		// too scattered to resolve, which is a verdict of its own.
		var out bytes.Buffer
		compareResults(&out, res, res)
		if !strings.Contains(out.String(), " 0 better, 0 worse,") {
			t.Errorf("comparing a results file with itself found a difference:\n%s", out.String())
		}
	}
}

// TestDriverLine checks the last line of a driver run against the builder's
// contract: every end-to-end name, non-zero, on every workload, with a
// stand-in where the workload does not define the metric.
func TestDriverLine(t *testing.T) {
	for _, w := range workloads {
		var out bytes.Buffer
		if code := driverRun(&out, w.name, 0, false, true); code != 0 {
			t.Fatalf("%s: driverRun exited %d:\n%s", w.name, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", w.name, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(endToEnd()) {
			t.Errorf("%s: %d metrics on the line, want %d", w.name, len(line.Metrics), len(endToEnd()))
		}
		for _, d := range endToEnd() {
			if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.Name, v, d.Unit)
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json equal to the metric tables and inside
// the limits of the builder's contract.
func TestManifest(t *testing.T) {
	want := manifest()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	e2e, layer := endToEnd(), perLayer()
	if len(e2e) != 16 || len(layer) != 127 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 16 and 127", len(e2e), len(layer))
	}
	for _, d := range e2e {
		check(d)
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range layer {
		check(d)
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %q breaks the naming rules (why is %d characters)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

func TestJudge(t *testing.T) {
	s := func(vals ...float64) sample { return newSample("s", vals) }
	cases := []struct {
		name   string
		a, b   sample
		better string
		bound  float64
		want   string
	}{
		{"exact equal", s(5, 5, 5), s(5, 5, 5), higher, 0.01, verdictSame},
		{"exact lower throughput", s(5, 5, 5), s(4.99, 4.99, 4.99), higher, 0.01, verdictWorse},
		{"exact lower latency", s(5, 5, 5), s(4, 4, 4), lower, 0.01, verdictBetter},
		{"inside bound", s(1.00, 1.02, 1.04), s(1.03, 1.05, 1.06), lower, 0.10, verdictSame},
		{"past bound", s(1.00, 1.02, 1.04), s(1.20, 1.22, 1.24), lower, 0.10, verdictWorse},
		{"improved past bound", s(1.20, 1.22, 1.24), s(1.00, 1.02, 1.04), lower, 0.10, verdictBetter},
		{"spread wider than bound", s(1.0, 1.2, 1.5), s(1.1, 1.3, 1.4), lower, 0.10, verdictUnresolved},
		{"wide but disjoint and better", s(2.0, 2.3, 2.6), s(1.0, 1.2, 1.5), lower, 0.10, verdictBetter},
		{"wide, disjoint and worse", s(1.0, 1.2, 1.5), s(2.0, 2.3, 2.6), lower, 0.10, verdictWorse},
		{"higher is better, worse", s(100, 101, 102), s(80, 81, 82), higher, 0.10, verdictWorse},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
