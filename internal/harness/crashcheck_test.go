package harness

import (
	"bytes"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
)

// TestCrashCheckMatrix is the harness-level integrity assertion: across a
// bounded-exhaustive sweep of crash states, the four ordering schemes leave
// nothing for fsck to object to, and No Order — same write pattern, free
// reordering — demonstrably does.
func TestCrashCheckMatrix(t *testing.T) {
	var buf bytes.Buffer
	rows := CrashCheckMatrix(fsim.Schemes, CrashCheckOptions{
		Files: 8,
		MC:    crashmc.Config{Workers: 2, Budget: 1200, PerInstant: 256},
	}, &buf)
	if len(rows) != len(fsim.Schemes) {
		t.Fatalf("got %d rows for %d schemes", len(rows), len(fsim.Schemes))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%v: %v", r.Scheme, r.Err)
		}
		if r.ExpectClean() && !r.Result.Clean() {
			t.Errorf("%v: %d violating crash states out of %d checked, first: %+v",
				r.Scheme, r.Result.Stats.Violating, r.Result.Stats.Checked, r.Result.Violations[0])
		}
		if !r.ExpectClean() && r.Result.Clean() {
			t.Errorf("%v: clean across %d distinct crash images; the unordered scheme should violate",
				r.Scheme, r.Result.Stats.Checked)
		}
		if r.Result.Stats.Checked == 0 {
			t.Errorf("%v: no crash images checked", r.Scheme)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Crash-state model check") || !strings.Contains(out, "verdict") {
		t.Errorf("table output missing expected headers:\n%s", out)
	}
}

// TestCrashCheckSeededBugIsExpected: a planted soft updates bug must
// violate, and the table calls that verdict expected — the rule mdcheck's
// exit status reads too. A seeded sweep that came up clean would be the
// unexpected one.
func TestCrashCheckSeededBugIsExpected(t *testing.T) {
	var buf bytes.Buffer
	rows := CrashCheckMatrix([]fsim.Scheme{fsim.SoftUpdates}, CrashCheckOptions{
		Files:   8,
		SeedBug: true,
		MC:      crashmc.Config{Workers: 2, Budget: 600, PerInstant: 256},
	}, &buf)
	r := rows[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.ExpectClean() || r.Result.Clean() || !r.AsExpected() {
		t.Errorf("seeded row: expect clean %v, clean %v, as expected %v", r.ExpectClean(), r.Result.Clean(), r.AsExpected())
	}
	if out := buf.String(); !strings.Contains(out, "VIOLATIONS (expected)") || strings.Contains(out, "UNEXPECTED") {
		t.Errorf("seeded verdict not marked expected:\n%s", out)
	}
	if clean := (CrashCheckRow{Scheme: fsim.SoftUpdates, Seeded: true, Result: &crashmc.Result{}}); clean.AsExpected() {
		t.Error("a clean sweep with the bug planted counts as expected")
	}
}

// TestCrashCheckRefusesOffMediaRecovery: NVRAM's recovery replays a log the
// media images of a sweep do not hold. Sweeping them anyway reports the
// unrecovered images as violations (a false alarm mdcheck used to print), so
// both sweeps return an error instead of a verdict.
func TestCrashCheckRefusesOffMediaRecovery(t *testing.T) {
	res, err := CrashCheck(fsim.NVRAM, CrashCheckOptions{Files: 4})
	if err == nil || res != nil || !strings.Contains(err.Error(), "NVRAM") {
		t.Errorf("CrashCheck(NVRAM) = %v, %v; want an error naming the scheme and no result", res, err)
	}
	dres, err := DistCrashCheck(DistCrashCheckOptions{Scheme: fsim.NVRAM, Nodes: 2})
	if err == nil || dres != nil {
		t.Errorf("DistCrashCheck(NVRAM) = %v, %v; want an error and no result", dres, err)
	}
	var buf bytes.Buffer
	rows := CrashCheckMatrix([]fsim.Scheme{fsim.NVRAM}, CrashCheckOptions{Files: 4}, &buf)
	if rows[0].Err == nil || !strings.Contains(buf.String(), "error: ") || strings.Contains(buf.String(), "VIOLATIONS") {
		t.Errorf("matrix row for NVRAM: err %v, table:\n%s", rows[0].Err, buf.String())
	}
}
