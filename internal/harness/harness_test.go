package harness_test

import (
	"strings"
	"testing"

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
	for _, name := range harness.ExperimentNames {
		name := name
		t.Run(name, func(t *testing.T) {
			tables := harness.ExhibitByName[name].Tables(cfg)
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

func TestExperimentNamesAllRegistered(t *testing.T) {
	for _, name := range harness.ExperimentNames {
		if harness.ExhibitByName[name] == nil {
			t.Fatalf("experiment %q not registered", name)
		}
	}
	if len(harness.ExhibitByName) != len(harness.ExperimentNames) {
		t.Fatalf("registry (%d) and name list (%d) out of sync",
			len(harness.ExhibitByName), len(harness.ExperimentNames))
	}
}
