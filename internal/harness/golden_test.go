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

	const path = "testdata/golden-0.05.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	// Point at the first differing line rather than dumping both outputs.
	gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
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
			t.Fatalf("output diverges from golden at line %d:\n got: %q\nwant: %q\n%s", i+1, g, w,
				fmt.Sprintf("(%d bytes got vs %d bytes want)", buf.Len(), len(want)))
		}
	}
	t.Fatalf("output differs from golden in trailing bytes (%d got vs %d want)", buf.Len(), len(want))
}
