package trace

// Merge folds o's samples into d. o is unchanged. Merging is exact.
func (d *Digest) Merge(o *Digest) { d.vals = append(d.vals, o.vals...) }
