package harness

import (
	"fmt"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
	"metaupdate/internal/workload"
)

// FaultRecovery is what one CellFaultRecovery run measures: the driver's
// recovery activity up to the crash, and what a fsck-based recovery of the
// crashed media finds and salvages.
type FaultRecovery struct {
	Faults     fsim.FaultStats `json:"faults"`
	LostWrites int64           `json:"lost_writes"`
	// PreRepair counts fsck findings on the crashed media (after NVRAM
	// replay where applicable) before any repair.
	PreRepair int `json:"pre_repair"`
	// PostRepair counts findings left after repair; nonzero means the image
	// could not be brought back to a consistent state.
	PostRepair int `json:"post_repair"`
	// Files is the number of reachable regular files in the recovered
	// namespace (the salvage yield).
	Files int `json:"files"`
}

// DefaultFaultSpec is the exhibit's fault plan: a noticeably hostile disk —
// roughly 1 in 30 accesses misbehaves — that a bounded retry budget still
// beats almost always, so the interesting column is how the schemes differ,
// not whether the driver survives.
func DefaultFaultSpec() fsim.FaultSpec {
	return fsim.FaultSpec{
		Seed:            1,
		TransientPer10k: 150,
		TornPer10k:      150,
		LatencyPer10k:   50,
		BadSectors:      4,
	}
}

// faultRecoveryRun is CellFaultRecovery's simulation: churn under opt's
// fault plan, crash at the given instant, recover the image the way the
// paper prescribes (NVRAM replays its surviving log; everything else leans
// on fsck), and report the salvage.
func faultRecoveryRun(opt fsim.Options, at sim.Duration) FaultRecovery {
	sys := mustSystem(opt)
	workload.Churn(sys.Eng, sys.FS, 40, 7, func(int) int { return 4096 })
	img := sys.Crash(fsim.Time(at))
	st := sys.CollectStats()
	sys.Recover(img)
	rec := FaultRecovery{Faults: st.Faults, LostWrites: st.LostWrites}
	rec.PreRepair = len(fsck.Check(img).Findings)
	fsck.Repair(img)
	rec.PostRepair = len(fsck.Check(img).Findings)
	if tree, err := fsck.Tree(fsck.Bytes(img)); err == nil {
		for _, e := range tree {
			if !e.Dir {
				rec.Files++
			}
		}
	}
	return rec
}

// faultCrashPoints: one instant just past the syncer horizon (the first
// delayed writes are reaching the disk) and one deep into steady-state
// flushing.
var faultCrashPoints = []sim.Duration{40 * sim.Second, 75 * sim.Second}

// FaultRecoveryExhibit reports per-scheme recovery behavior on a faulty
// disk (mdsim -exp faults). It has one size: cfg.Scale does not apply.
var FaultRecoveryExhibit = &Exhibit{Name: "faults", Build: buildFaultRecovery}

func buildFaultRecovery(cfg Config, get func(Cell) CellResult) []Table {
	schemes := append(append([]fsim.Scheme{}, fsim.Schemes...), fsim.NVRAM)
	spec := DefaultFaultSpec()
	t := Table{
		Title: fmt.Sprintf("Crash recovery on a faulty disk (plan %s, retries 8)", spec),
		Note: "metadata churn; plug pulled at the crash instant; recovery = NVRAM replay where applicable + fsck repair\n" +
			"fsck columns count findings before/after repair; files = regular files salvaged",
		Columns: []string{"scheme", "crash", "transient", "torn", "bad", "remap", "retries", "errors", "lost", "fsck", "repaired", "files", "verdict"},
	}
	for _, scheme := range schemes {
		for _, at := range faultCrashPoints {
			r := get(Cell{
				Kind: CellFaultRecovery,
				Opt: fsim.Options{
					Scheme:     scheme,
					DiskBytes:  8 << 20,
					NInodes:    1024,
					CacheBytes: 2 << 20,
					Faults:     spec,
					MaxRetries: 8,
				},
				CrashAt: at,
			}).FaultRec
			verdict := "recovered"
			if r.PostRepair > 0 {
				verdict = fmt.Sprintf("%d UNREPAIRED", r.PostRepair)
			}
			f := r.Faults
			t.AddRow(scheme.String(), fmt.Sprintf("%ds", int64(at/sim.Second)),
				fmt.Sprintf("%d", f.Transient), fmt.Sprintf("%d", f.Torn),
				fmt.Sprintf("%d", f.BadSectors), fmt.Sprintf("%d", f.Remaps),
				fmt.Sprintf("%d", f.Retries), fmt.Sprintf("%d", f.Errors),
				fmt.Sprintf("%d", r.LostWrites), fmt.Sprintf("%d", r.PreRepair),
				fmt.Sprintf("%d", r.PreRepair-r.PostRepair), fmt.Sprintf("%d", r.Files),
				verdict)
		}
	}
	return []Table{t}
}
