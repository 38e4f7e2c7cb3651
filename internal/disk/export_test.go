package disk

// HasChunk reports whether the chunk holding media byte off has been
// materialized.
func (d *Disk) HasChunk(off int64) bool { return d.chunks[off/chunkBytes] != nil }
