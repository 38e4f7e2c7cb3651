package sim

// SplitMix64 advances x and returns the next value of the splitmix64
// stream it holds. Every seeded decision stream in the simulator (fault
// judging, cluster routing and splits, the cluster's client workload)
// takes a fixed number of draws per decision, so a stream's position is
// a pure function of the decision count.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Draw is the (seed, index, salt)-keyed splitmix64 draw: no stream state,
// so the draw for index i never depends on any other index's draws (one
// mixing round decorrelates nearby keys). The arrival processes and the
// scenario streams are pure functions of it.
func Draw(seed, index int64, salt uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(index)*0xD1B54A32D192ED03 ^ salt
	return SplitMix64(&x)
}
