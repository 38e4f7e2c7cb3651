package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"metaupdate/internal/harness"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-0.05.txt from the current output")

// TestGoldenStdout locks down the exact bytes of every experiment table at
// scale 0.05 — the contract the hot-path work is held to: pooling, flat
// event queues, and overlay images may change how fast the answer arrives,
// never the answer. The runner is GOMAXPROCS-wide, so this also re-proves
// that output is identical under parallel cell execution.
//
// Regenerate with: go test ./internal/harness -run TestGoldenStdout -update-golden
func TestGoldenStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	var buf bytes.Buffer
	cfg := harness.Config{Scale: 0.05, Runner: harness.NewRunner(0)}
	for _, ex := range harness.Paper {
		for _, tb := range ex.Tables(cfg) {
			tb.Fprint(&buf)
		}
	}

	matchGolden(t, "testdata/golden-0.05.txt", buf.Bytes(), *updateGolden, "-update-golden")
}

// matchGolden rewrites path with got when update is set, and otherwise
// fails at the first line where got differs from it.
func matchGolden(t *testing.T, path string, got []byte, update bool, flagName string) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with %s): %v", flagName, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Point at the first differing line rather than dumping both outputs.
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q\n%s", path, i+1, g, w,
				fmt.Sprintf("(%d bytes got vs %d bytes want)", len(got), len(want)))
		}
	}
	t.Fatalf("output differs from %s in trailing bytes (%d got vs %d want)", path, len(got), len(want))
}

var updateExtGolden = flag.Bool("update-ext-golden", false, "rewrite testdata/ext-0.05.txt from the current output")

// TestExtGolden pins the extension exhibits no other golden covers to a
// committed transcript: mdsim -exp faults, opstats, scenario-build and
// scenario-webcache, in that order, each at -scale 0.05 -rate 100
// -scenario-nodes 2. The seeded fault streams, the arrival processes,
// the scenario draws and the latency digests all show up in these bytes.
//
// Regenerate with: go test ./internal/harness -run TestExtGolden -update-ext-golden
func TestExtGolden(t *testing.T) {
	var buf bytes.Buffer
	cfg := harness.Config{Scale: 0.05, Runner: harness.NewRunner(0)}
	for _, name := range []string{"faults", "opstats", "scenario-build", "scenario-webcache"} {
		for _, ex := range harness.Registry(100, 2) {
			if ex.Name != name {
				continue
			}
			for _, tb := range ex.Tables(cfg) {
				tb.Fprint(&buf)
			}
		}
	}

	matchGolden(t, "testdata/ext-0.05.txt", buf.Bytes(), *updateExtGolden, "-update-ext-golden")
}
