package workload

// SmallTree is a scaled-down variant for quick tests.
func SmallTree() TreeSpec {
	return TreeSpec{Files: 60, TotalBytes: 1_500_000, Dirs: 8, Seed: 7}
}
