package workload

import (
	"fmt"

	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// Churn launches (without waiting for) an endless metadata loop in a new
// directory "work" — creates with stamped data, a removal every third
// step, a rename every renameEvery-th, over a ring of `names` file names —
// so any crash instant lands mid-update. It is what the crash drivers
// (mdcrash, mdsim -exp faults) pull the plug on; step i writes size(i)
// bytes.
func Churn(eng *sim.Engine, fs *ffs.FS, names, renameEvery int, size func(i int) int) {
	eng.Spawn("churn", func(p *sim.Proc) {
		dir, err := fs.Mkdir(p, ffs.RootIno, "work")
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			name := fmt.Sprintf("f%d", i%names)
			if ino, err := fs.Create(p, dir, name); err == nil {
				fs.WriteAt(p, ino, 0, fsck.MakeStampedData(ino, size(i)))
			}
			if i%3 == 2 {
				fs.Unlink(p, dir, fmt.Sprintf("f%d", (i-2)%names))
			}
			if i%renameEvery == renameEvery-1 {
				fs.Rename(p, dir, name, dir, fmt.Sprintf("r%d", i%names))
			}
		}
	})
}
