package crashmc

// Writes reports the number of recorded write requests.
func (r *Recorder) Writes() int { return r.writes }

// ShrinkTrials is the cap on the images a shrink materializes.
const ShrinkTrials = shrinkTrials
