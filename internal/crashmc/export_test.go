package crashmc

import (
	"sync"

	"metaupdate/internal/disk"
	"metaupdate/internal/fsck"
)

// Writes reports the number of recorded write requests.
func (r *Recorder) Writes() int { return r.writes }

// ShrinkTrials is the cap on the images a shrink materializes.
const ShrinkTrials = shrinkTrials

// fullImages holds checkFull's scratch images, one per concurrent caller.
var fullImages sync.Pool

// checkFull is the reference the incremental checker is pinned against:
// the candidate materialized, recovered and walked in full.
func checkFull(ov *overlay, cfg Config) []string {
	p, _ := fullImages.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	defer fullImages.Put(p)
	img := append((*p)[:0], ov.base...)
	*p = img
	for _, s := range ov.dirty {
		copy(img[s*disk.SectorSize:], ov.view[s])
	}
	if cfg.Recover != nil {
		if f := runRecover(cfg.Recover, img); f != "" {
			return []string{f}
		}
	}
	return checkImage(fsck.Bytes(img), cfg.ExtraCheck)
}

// exploreFull runs r.Explore(cfg) with every candidate checked by
// checkFull.
func exploreFull(r *Recorder, cfg Config) *Result {
	fullCheck = checkFull
	defer func() { fullCheck = nil }()
	return r.Explore(cfg)
}
