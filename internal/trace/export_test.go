package trace

// Merge folds o's samples into d. o is unchanged. Merging exact digests
// is exact; when d is capped, o's retained samples are appended and the
// usual decimation applies, so the merged distribution is the same
// bounded approximation Add would have produced for d's own samples.
func (d *Digest) Merge(o *Digest) {
	if d.cap <= 0 {
		d.vals = append(d.vals, o.vals...)
		d.seen += o.seen
		return
	}
	for _, v := range o.vals {
		d.Add(v)
	}
	// Count the samples o observed but did not retain.
	d.seen += o.seen - len(o.vals)
}

// Retained returns the number of samples currently held; equal to
// Count() for unbounded digests, at most the cap otherwise.
func (d *Digest) Retained() int { return len(d.vals) }
