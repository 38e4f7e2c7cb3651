package dev

// IsPending reports whether request id has not yet completed.
func (d *Driver) IsPending(id uint64) bool {
	_, ok := d.pending[id]
	return ok
}

// buckets reports the number of non-empty sector buckets.
func (d *Driver) buckets() int {
	n := 0
	for _, s := range d.bySector.All() {
		if len(*s) > 0 {
			n++
		}
	}
	return n
}
