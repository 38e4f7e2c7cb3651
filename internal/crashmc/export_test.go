package crashmc

// ShrinkTrials is the cap on the images a shrink materializes.
const ShrinkTrials = shrinkTrials
