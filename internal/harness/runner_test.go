package harness_test

import (
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/harness"
)

// renderAll prints every table of an exhibit to one string.
func renderAll(tables []harness.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		t.Fprint(&sb)
	}
	return sb.String()
}

// TestParallelDeterminism is the engine's core contract: a representative
// exhibit rendered with 1 worker and with 8 workers must be byte-equal.
// fig2 exercises the copy+remove cell kind end to end (prep, both
// benchmark phases, settle flushes) across five configurations.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	ex := harness.Fig2
	serial := renderAll(ex.Tables(harness.Config{Scale: 0.05, Runner: harness.NewRunner(1)}))
	parallel := renderAll(ex.Tables(harness.Config{Scale: 0.05, Runner: harness.NewRunner(8)}))
	if serial != parallel {
		t.Fatalf("rendered tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
}

// TestMemoizedCellMatchesFreshRun pins memoization correctness: serving a
// cell from the memo must reproduce exactly what a fresh simulation of the
// same cell computes, and must not re-run it.
func TestMemoizedCellMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cell := harness.Cell{
		Kind: harness.CellFig5, Opt: fsim.Options{Scheme: fsim.SoftUpdates},
		Fig5: harness.Fig5CreateRemoves, Users: 2, TotalFiles: 200,
	}
	r := harness.NewRunner(2)
	cold := r.Get(cell)
	warm := r.Get(cell)
	fresh := harness.NewRunner(1).Get(cell)
	if cold.Throughput != warm.Throughput {
		t.Fatalf("memo hit changed the result: %v vs %v", cold.Throughput, warm.Throughput)
	}
	if cold.Throughput != fresh.Throughput {
		t.Fatalf("memoized result %v != fresh run %v", cold.Throughput, fresh.Throughput)
	}
	st := r.Stats()
	if st.Executed != 1 || st.Hits != 1 {
		t.Fatalf("runner stats = %+v, want 1 executed / 1 hit", st)
	}
}

// TestCrossExhibitSharing checks that exhibits declaring the same
// configuration share one simulation when run on a common runner: figure 1
// and figure 3 both contain the Part-NR(/CB) 4-user copy.
func TestCrossExhibitSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	r := harness.NewRunner(0)
	cfg := harness.Config{Scale: 0.02, Runner: r}
	shared := harness.Fig1.Tables(cfg)
	before := r.Stats().Executed
	_ = harness.Fig3.Tables(cfg)
	after := r.Stats()
	_ = shared
	ran := after.Executed - before
	if ran >= 4 {
		t.Fatalf("fig3 simulated %d of its 4 cells after fig1; expected the shared Part-NR/CB cell to memo-hit", ran)
	}
	if after.Hits == 0 {
		t.Fatal("no memo hits recorded across fig1+fig3")
	}
}

// TestCellsStableAcrossPasses guards the Build contract: declaring cells
// (recording pass) and assembling tables must request the same cells in
// the same order for every exhibit.
func TestCellsStableAcrossPasses(t *testing.T) {
	for _, ex := range harness.Paper {
		checkCellsStable(t, ex, harness.Config{Scale: 0.02})
	}
}

func checkCellsStable(t *testing.T, ex *harness.Exhibit, cfg harness.Config) {
	t.Helper()
	a := ex.Cells(cfg)
	b := ex.Cells(cfg)
	if len(a) == 0 {
		t.Errorf("%s declares no cells", ex.Name)
		return
	}
	if len(a) != len(b) {
		t.Errorf("%s: cell count varies between passes: %d vs %d", ex.Name, len(a), len(b))
		return
	}
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Errorf("%s: cell %d differs between passes", ex.Name, i)
		}
	}
}
