package harness_test

import (
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/harness"
)

// Every experiment must run end to end at tiny scale and produce a table
// with the expected structure. This keeps the mdsim command paths covered
// by `go test` without paper-sized runtimes.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cfg := harness.Config{Scale: 0.02}
	for _, ex := range harness.Paper {
		t.Run(ex.Name, func(t *testing.T) {
			tables := ex.Tables(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Columns) < 2 || len(tb.Rows) == 0 {
					t.Fatalf("malformed table %+v", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("%s: row width %d != %d columns", tb.Title, len(row), len(tb.Columns))
					}
				}
				var sb strings.Builder
				tb.Fprint(&sb)
				if !strings.Contains(sb.String(), tb.Columns[0]) {
					t.Fatal("Fprint lost the header")
				}
			}
		})
	}
}

// TestExperimentNamesAllRegistered pins the registry's shape: every name
// is unique and non-reserved, `all` (harness.Paper) is exactly the
// registry's prefix in the golden transcript's order, the extensions follow
// it, and each extension keeps the Build contract exhibit.go states (the
// paper set's is TestCellsStableAcrossPasses).
func TestExperimentNamesAllRegistered(t *testing.T) {
	reg := harness.Registry(200, 2)
	seen := map[string]bool{"all": true}
	for _, ex := range reg {
		if ex.Name == "" || seen[ex.Name] {
			t.Fatalf("exhibit name %q is empty, reserved or registered twice", ex.Name)
		}
		seen[ex.Name] = true
	}
	golden := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3",
		"chains-ablation", "cb-ablation", "nvram", "cache-sweep"}
	if len(harness.Paper) != len(golden) {
		t.Fatalf("paper set has %d exhibits, golden transcript %d", len(harness.Paper), len(golden))
	}
	for i, name := range golden {
		if harness.Paper[i].Name != name || reg[i] != harness.Paper[i] {
			t.Fatalf("registry[%d] = %q, paper[%d] = %q, want %q", i, reg[i].Name, i, harness.Paper[i].Name, name)
		}
	}
	var ext []string
	for _, ex := range reg[len(golden):] {
		ext = append(ext, ex.Name)
		checkCellsStable(t, ex, harness.Config{Scale: 0.05})
	}
	want := "faults opstats dist load scenario-mail scenario-build scenario-webcache"
	if got := strings.Join(ext, " "); got != want {
		t.Fatalf("extensions = %q, want %q", got, want)
	}
}

// TestTraceRecordsMatchRunningSums: the per-request records a traced copy
// keeps and the sums the driver keeps for every run describe the same
// requests — for every scheme, the records' count and mean service and
// response times are exactly what Requests, AvgServiceMS and AvgResponseMS
// report.
func TestTraceRecordsMatchRunningSums(t *testing.T) {
	for _, s := range fsim.Schemes {
		harness.TraceCopy(fsim.Options{Scheme: s}, 4, 0.02, func(sys *fsim.System) {
			tr := &sys.Driver.Trace
			var service, response fsim.Duration
			for _, st := range tr.Stats {
				service += st.Service
				response += st.Response
			}
			n := len(tr.Stats)
			if n == 0 || n != tr.Requests() {
				t.Fatalf("%s: %d records, %d requests traced", s, n, tr.Requests())
			}
			mean := func(sum fsim.Duration) float64 { return (sum / fsim.Duration(n)).Milliseconds() }
			if got, want := mean(service), tr.AvgServiceMS(); got != want {
				t.Errorf("%s: records' mean service %v ms, trace reports %v ms", s, got, want)
			}
			if got, want := mean(response), tr.AvgResponseMS(); got != want {
				t.Errorf("%s: records' mean response %v ms, trace reports %v ms", s, got, want)
			}
		})
	}
}
