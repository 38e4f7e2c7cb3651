package harness

import (
	"encoding/json"
	"os"
)

// ExhibitReport is one exhibit's machine-readable result: the rendered
// tables plus the real time the exhibit took to resolve (which, with a
// shared warm runner, can be near zero).
type ExhibitReport struct {
	Name    string  `json:"name"`
	WallSec float64 `json:"wall_sec"`
	Tables  []Table `json:"tables"`
}

// Report is the mdsim -json payload: every exhibit's rows plus the
// runner's per-cell wall-clock and memoization counters. Table rows are a
// deterministic function of (scale, workload); the *_sec fields and
// counters describe the real execution and vary run to run.
type Report struct {
	Scale    float64         `json:"scale"`
	Jobs     int             `json:"jobs"`
	CPUs     int             `json:"cpus"`
	WallSec  float64         `json:"wall_sec"`
	Exhibits []ExhibitReport `json:"exhibits"`
	Runner   RunnerStats     `json:"runner"`
	Cells    []CellTiming    `json:"cells"`
}

// WriteFile writes the report to path as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
