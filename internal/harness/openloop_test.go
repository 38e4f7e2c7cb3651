package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"metaupdate/fsim"
)

var updateLoadGolden = flag.Bool("update-load-golden", false, "rewrite testdata/load-0.05.txt from the current output")

// loadText renders the full mdsim -exp load report through a runner with the
// given worker count, exactly as cmd/mdsim does.
func loadText(workers int, scale Scale) (string, *Runner, Config) {
	r := NewRunner(workers)
	cfg := Config{Scale: scale, Runner: r}
	var sb strings.Builder
	for _, tb := range LoadCurveExhibit.Tables(cfg) {
		tb.Fprint(&sb)
	}
	return sb.String(), r, cfg
}

// TestLoadCurveDeterministic asserts the load report is byte-identical
// for a serial and a parallel runner, and for a cold versus warm memo —
// the open-loop cells are pure functions of their fingerprints like every
// other cell kind, unbounded arrival processes included.
func TestLoadCurveDeterministic(t *testing.T) {
	serial, _, _ := loadText(1, opTestScale)
	parallel, r4, cfg := loadText(4, opTestScale)
	if serial == "" {
		t.Fatal("empty load report")
	}
	if !strings.Contains(serial, "Open-loop saturation summary") {
		t.Error("report is missing the saturation summary")
	}
	if serial != parallel {
		t.Errorf("load differs between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s", serial, parallel)
	}

	hits0 := r4.Stats().Hits
	var warm strings.Builder
	for _, tb := range LoadCurveExhibit.Tables(cfg) {
		tb.Fprint(&warm)
	}
	if warm.String() != parallel {
		t.Error("load differs between cold and warm memo on the same runner")
	}
	if r4.Stats().Hits <= hits0 {
		t.Error("warm rerun did not hit the memo")
	}

	// The report text is additionally pinned as a golden file: the tables
	// carry every measured throughput and latency percentile, so any
	// change to the arrival processes, the scenario streams, the driver,
	// or the schemes shows up as a byte diff here.
	const path = "testdata/load-0.05.txt"
	if *updateLoadGolden {
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(serial))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing load golden (regenerate with -update-load-golden): %v", err)
	}
	if serial != string(want) {
		gotLines := strings.Split(serial, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("load report diverges from testdata/load-0.05.txt at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

// scenarioTables renders the mdsim -exp scenario-mail report (2-node cluster
// variant included, so CellOpenLoopDist participates).
func scenarioTables(workers int) (string, *Runner, Config) {
	r := NewRunner(workers)
	cfg := Config{Scale: opTestScale, Runner: r}
	var sb strings.Builder
	for _, tb := range ScenarioExhibit("mail", 100, 2).Tables(cfg) {
		tb.Fprint(&sb)
	}
	return sb.String(), r, cfg
}

// TestScenarioDeterministic is the runner-level pin on the cluster open
// loop — the only runner test that drives CellOpenLoopDist: the scenario
// report is byte-identical for a serial and a parallel runner and for a
// cold versus warm memo, and the warm rerun hits the memo.
func TestScenarioDeterministic(t *testing.T) {
	serial, _, _ := scenarioTables(1)
	if serial == "" {
		t.Fatal("empty scenario report")
	}
	if !strings.Contains(serial, "metadata cluster") {
		t.Error("report is missing the cluster table")
	}
	parallel, r, cfg := scenarioTables(2)
	if parallel != serial {
		t.Fatalf("scenario report differs between -j1 and -j2:\n--- j1 ---\n%s\n--- j2 ---\n%s", serial, parallel)
	}
	hits0 := r.Stats().Hits
	var warm strings.Builder
	for _, tb := range ScenarioExhibit("mail", 100, 2).Tables(cfg) {
		tb.Fprint(&warm)
	}
	if warm.String() != parallel {
		t.Error("scenario report differs between cold and warm memo on the same runner")
	}
	if r.Stats().Hits <= hits0 {
		t.Error("warm rerun did not hit the memo")
	}
}

// loadCurve runs one scheme's full offered-load sweep and returns the
// measured throughput and p99 latency at each rate.
func loadCurve(r *Runner, scheme fsim.Scheme) (measured, p99 []float64) {
	ops, warm := loadOps(opTestScale)
	for _, rate := range loadRates {
		res := r.Get(openLoopCell(scheme, "mail", rate, ops, warm, 0)).OpenLoop
		measured = append(measured, res.MeasuredPerSec)
		p99 = append(p99, res.Lat.P99MS)
	}
	return measured, p99
}

// TestLoadCurveSaturation pins the open-loop shape for every scheme:
// below saturation measured throughput tracks offered load (monotone
// non-decreasing), and past saturation it plateaus instead of collapsing.
func TestLoadCurveSaturation(t *testing.T) {
	r := NewRunner(0)
	for _, s := range fsim.Schemes {
		m, _ := loadCurve(r, s)
		peak := 0.0
		for _, x := range m {
			if x > peak {
				peak = x
			}
		}
		if peak <= 0 {
			t.Errorf("%s: no throughput measured", s)
			continue
		}
		for i := 0; i+1 < len(m); i++ {
			// Monotone while clearly below saturation; a small tolerance
			// past it (seek patterns shift with queue depth).
			if m[i] < 0.75*peak && m[i+1] < m[i] {
				t.Errorf("%s: measured/s fell %.1f -> %.1f at offered %d -> %d while below saturation (peak %.1f)",
					s, m[i], m[i+1], loadRates[i], loadRates[i+1], peak)
			}
		}
		if last := m[len(m)-1]; last < 0.7*peak {
			t.Errorf("%s: throughput collapsed past saturation: peak %.1f/s, final %.1f/s", s, peak, last)
		}
	}
}

// divergeRate returns the first offered load whose p99 exceeds the
// threshold (the scheme is past saturation there), or a sentinel above
// every swept rate if the tail never diverges.
func divergeRate(p99 []float64, thresholdMS float64) int {
	for i, x := range p99 {
		if x > thresholdMS {
			return loadRates[i]
		}
	}
	return loadRates[len(loadRates)-1] * 2
}

// TestConventionalSaturatesFirst is the headline acceptance pin: under
// the open-loop mail scenario, Conventional's synchronous metadata writes
// run out of capacity — and its p99 diverges — at a strictly lower
// offered load than both Soft Updates' and Async Durability's.
func TestConventionalSaturatesFirst(t *testing.T) {
	r := NewRunner(0)
	mConv, pConv := loadCurve(r, fsim.Conventional)
	mSoft, pSoft := loadCurve(r, fsim.SoftUpdates)
	mAsync, pAsync := loadCurve(r, fsim.AsyncDurability)

	peak := func(m []float64) float64 {
		best := 0.0
		for _, x := range m {
			if x > best {
				best = x
			}
		}
		return best
	}
	capConv, capSoft, capAsync := peak(mConv), peak(mSoft), peak(mAsync)
	// Strict capacity ordering with real margin, not measurement noise.
	if capSoft < 1.3*capConv {
		t.Errorf("Soft Updates capacity %.1f/s is not well above Conventional's %.1f/s", capSoft, capConv)
	}
	if capAsync < 1.3*capConv {
		t.Errorf("Async Durability capacity %.1f/s is not well above Conventional's %.1f/s", capAsync, capConv)
	}

	const divergeMS = 500
	dConv := divergeRate(pConv, divergeMS)
	dSoft := divergeRate(pSoft, divergeMS)
	dAsync := divergeRate(pAsync, divergeMS)
	if dConv >= dSoft {
		t.Errorf("Conventional p99 diverged at %d/s, not before Soft Updates' %d/s\nconv %v\nsoft %v",
			dConv, dSoft, fmtCurve(pConv), fmtCurve(pSoft))
	}
	if dConv >= dAsync {
		t.Errorf("Conventional p99 diverged at %d/s, not before Async Durability's %d/s\nconv %v\nasync %v",
			dConv, dAsync, fmtCurve(pConv), fmtCurve(pAsync))
	}
}

func fmtCurve(p []float64) string {
	parts := make([]string, len(p))
	for i, x := range p {
		parts[i] = fmt.Sprintf("@%d:%.0fms", loadRates[i], x)
	}
	return strings.Join(parts, " ")
}
