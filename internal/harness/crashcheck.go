package harness

import (
	"fmt"
	"io"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/workload"
)

// CrashCheckOptions parameterizes one model-checked workload run.
type CrashCheckOptions struct {
	// Files is the number of 1 KB files created and then removed (the
	// paper's figure 5 metadata workload). Default 150.
	Files int
	// SeedBug deliberately breaks soft updates by dropping the directory
	// entry -> inode initialization dependency (ordering.SoftUpdates
	// DropEntryDeps), to demonstrate that the checker catches real ordering
	// bugs. Only meaningful for fsim.SoftUpdates.
	SeedBug bool
	// MC bounds the exploration; zero values take crashmc defaults.
	MC crashmc.Config
}

func (o *CrashCheckOptions) setDefaults() {
	if o.Files <= 0 {
		o.Files = 150
	}
}

// CrashCheck records the 1 KB create/remove workload under the given scheme
// on a small (6 MB) file system and explores its crash-state space.
//
// The small media size is deliberate: every crash state is a full-image
// copy, so a compact file system is what makes bounded-exhaustive checking
// cheap enough to run in tests.
func CrashCheck(scheme fsim.Scheme, opt CrashCheckOptions) (*crashmc.Result, error) {
	opt.setDefaults()
	cfg := opt.MC
	var err error
	// A scheme whose contract holds after recovery, not on the raw image, is
	// swept through its recovery step — or not at all, if that step needs
	// more than the image.
	if cfg.Recover, err = scheme.MediaRecovery(); err != nil {
		return nil, err
	}
	sys, err := fsim.New(fsim.Options{
		Scheme:     scheme,
		DiskBytes:  6 << 20,
		NInodes:    1024,
		CacheBytes: 2 << 20,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	if opt.SeedBug {
		if sys.Soft == nil {
			return nil, fmt.Errorf("harness: SeedBug requires the soft updates scheme, got %v", scheme)
		}
		sys.Soft.DropEntryDeps = true
	}

	rec := crashmc.Attach(sys.Driver, sys.Disk)
	var werr error
	sys.Run(func(p *fsim.Proc) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "mc")
		if err != nil {
			werr = err
			return
		}
		if err := workload.CreateFiles(p, sys.FS, dir, opt.Files, 1024); err != nil {
			werr = err
			return
		}
		sys.FS.Sync(p)
		if err := workload.RemoveFiles(p, sys.FS, dir, opt.Files); err != nil {
			werr = err
			return
		}
		sys.FS.Sync(p)
	})
	if werr != nil {
		return nil, werr
	}
	return rec.Explore(cfg), nil
}

// CrashCheckRow is one scheme's outcome in a matrix sweep.
type CrashCheckRow struct {
	Scheme fsim.Scheme
	Seeded bool // the run had CrashCheckOptions.SeedBug planted
	Result *crashmc.Result
	Err    error
}

// ExpectClean reports whether every crash state should pass fsck's ordering
// rules: No Order promises nothing, a scheme with a planted bug breaks its
// promise, and everything else keeps it.
func (r CrashCheckRow) ExpectClean() bool { return r.Scheme != fsim.NoOrder && !r.Seeded }

// AsExpected reports whether the row's verdict is the one ExpectClean
// predicts (false for a row that errored).
func (r CrashCheckRow) AsExpected() bool {
	return r.Err == nil && r.ExpectClean() == r.Result.Clean()
}

// CrashCheckMatrix runs CrashCheck for each scheme and renders the results
// as a table on w (nil w: no output). It returns the rows for asserting.
func CrashCheckMatrix(schemes []fsim.Scheme, opt CrashCheckOptions, w io.Writer) []CrashCheckRow {
	rows := make([]CrashCheckRow, 0, len(schemes))
	for _, s := range schemes {
		res, err := CrashCheck(s, opt)
		rows = append(rows, CrashCheckRow{Scheme: s, Seeded: opt.SeedBug, Result: res, Err: err})
	}
	if w != nil {
		t := &Table{
			Title:   fmt.Sprintf("Crash-state model check: %d x 1 KB create/remove", opt.Files),
			Columns: []string{"scheme", "writes", "instants", "explored", "checked", "violating", "chk/s", "verdict"},
		}
		for _, r := range rows {
			if r.Err != nil {
				t.AddRow(r.Scheme.String(), "-", "-", "-", "-", "-", "-", "error: "+r.Err.Error())
				continue
			}
			st := r.Result.Stats
			verdict := "CLEAN"
			if st.Violating > 0 {
				verdict = fmt.Sprintf("%d VIOLATIONS", st.Violating)
			}
			if r.AsExpected() {
				verdict += " (expected)"
			} else {
				verdict += " (UNEXPECTED)"
			}
			t.AddRow(r.Scheme.String(),
				fmt.Sprintf("%d", st.Writes),
				fmt.Sprintf("%d", st.Instants),
				fmt.Sprintf("%d", st.Explored),
				fmt.Sprintf("%d", st.Checked),
				fmt.Sprintf("%d", st.Violating),
				fmt.Sprintf("%.0f", st.CheckedPerSec),
				verdict)
		}
		t.Fprint(w)
	}
	return rows
}
