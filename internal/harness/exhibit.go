package harness

import "metaupdate/internal/scenario"

// Exhibit is one paper exhibit expressed declaratively: Build names the
// cells the exhibit needs (through get) and assembles its tables from the
// CellResults, instead of imperatively running simulations mid-loop.
//
// Build's contract: it must be deterministic and must not let the
// *structure* of its output (which cells it asks for, in what order)
// depend on the results get returns. Tables runs Build twice — first with
// a recording get that returns zero CellResults, to discover the cell
// list, then against the runner's warmed memo to assemble the real rows.
// The double execution is cheap (formatting only) and guarantees the
// declared cell list and the assembly loop can never drift apart.
type Exhibit struct {
	Name  string
	Build func(cfg Config, get func(Cell) CellResult) []Table
}

// Cells returns the cells Build would request, in request order.
func (e *Exhibit) Cells(cfg Config) []Cell {
	var cells []Cell
	e.Build(cfg, func(c Cell) CellResult {
		cells = append(cells, c)
		return CellResult{}
	})
	return cells
}

// Tables resolves the exhibit's cells on cfg.Runner (a private
// GOMAXPROCS-wide runner if nil) and assembles the tables. Row content is
// a pure function of the cell results, so the output is byte-identical at
// any worker count and for cold or warm memos.
func (e *Exhibit) Tables(cfg Config) []Table {
	r := cfg.Runner
	if r == nil {
		r = NewRunner(0)
	}
	r.All(e.Cells(cfg))
	return e.Build(cfg, r.lookup)
}

// Paper lists the paper's exhibits in presentation order: what mdsim's
// `-exp all` runs and what testdata/golden-0.05.txt pins. mdsim shares one
// Runner across all of them so cells common to several exhibits (e.g. the
// Part-NR/CB 4-user copy of figures 1 and 3 and table 1) simulate once.
var Paper = []*Exhibit{
	Fig1, Fig2, Fig3, Fig4, Fig5, Fig6,
	Table1, Table2, Table3, ChainsAblation, CBAblation, NVRAMComparison,
	CacheSweep,
}

// Registry returns every exhibit mdsim can run by name: the paper set
// followed by the extensions. The extensions are post-paper studies —
// fault injection, operation profiles, the sharded service, offered load —
// that `all` and the golden transcript deliberately leave out, so they can
// grow without perturbing the pinned paper output. rate and nodes are the
// scenario exhibits' offered load and cluster size (mdsim -rate and
// -scenario-nodes).
func Registry(rate, nodes int) []*Exhibit {
	all := append([]*Exhibit(nil), Paper...)
	all = append(all, FaultRecoveryExhibit, OpStatsExhibit, DistExhibit, LoadCurveExhibit)
	for _, name := range scenario.Names() {
		all = append(all, ScenarioExhibit(name, rate, nodes))
	}
	return all
}
