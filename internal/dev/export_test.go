package dev

// IsPending reports whether request id has not yet completed.
func (d *Driver) IsPending(id uint64) bool {
	_, ok := d.pending[id]
	return ok
}
