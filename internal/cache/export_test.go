package cache

// The storage pool is process-wide: a test that counts it must not run in
// parallel with another that uses a cache, and starts from a drained pool
// (DrainStorage) where warm storage left by earlier tests would change what
// it counts.

// Pooled returns how many nfrags-fragment slices the storage pool holds.
func Pooled(nfrags int) int {
	storage.mu.Lock()
	defer storage.mu.Unlock()
	return len(storage.free[nfrags])
}
