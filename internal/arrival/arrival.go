// Package arrival generates deterministic open-loop arrival processes:
// virtual-time instants at which work is offered to a system regardless of
// whether earlier work has finished. The paper's motivating workloads
// (mail and Usenet servers) are exactly this shape — deliveries arrive on
// the network's schedule, not the disk's — while every benchmark in the
// repository's exhibits is closed-loop (N users with think time), which
// self-throttles in the saturation regime where synchronous metadata
// writes collapse. This package supplies the missing regime.
//
// Two processes are provided: Poisson (exponential inter-arrival gaps, the
// memoryless baseline) and a bursty b-model cascade (self-similar arrival
// clumps over many time scales, the shape measured on real servers). Both
// are pure functions of (Spec, index) in the internal/fault idiom: the gap
// preceding arrival i is computed from a splitmix64 state keyed by (seed,
// i), never from a running stream, so a generator can be replayed from any
// index, results are byte-identical at any harness worker count, and
// harness cells fingerprinted on the Spec stay memoizable.
package arrival

import (
	"fmt"
	"math"

	"metaupdate/internal/sim"
)

// Kind selects the arrival process.
type Kind uint8

// The two processes.
const (
	// Poisson draws i.i.d. exponential inter-arrival gaps with mean
	// 1/PerSec: the index of dispersion of the resulting counts is 1.
	Poisson Kind = iota
	// Bursty modulates the exponential gaps by a multiplicative b-model
	// cascade over the arrival index: runs of adjacent arrivals share
	// cascade prefixes, so density fluctuates on every dyadic scale and the
	// index of dispersion exceeds 1 (self-similar clumping). The cascade
	// factor averages exactly 1 over an aligned 2^Levels block, so the
	// long-run offered rate is still PerSec.
	Bursty
)

func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Default cascade parameters (Bursty). BPer1000 = 700 reproduces the
// "70/30" b-model commonly fit to file system traffic; 500 degenerates to
// plain Poisson.
const (
	DefaultBPer1000 = 700
	DefaultLevels   = 14
)

// Spec parameterizes an arrival process. All fields are plain integers so
// a Spec is comparable and fingerprint-friendly (the harness prints it
// into cell fingerprints). The zero value is disabled —
// no arrivals, the closed-loop status quo.
type Spec struct {
	Kind Kind
	// Seed keys every draw; two seeds give independent processes.
	Seed int64
	// PerSec is the offered load in arrivals per virtual second. Zero
	// disables the process.
	PerSec int
	// BPer1000 is the b-model bias in thousandths (Bursty only): the
	// fraction of a cascade node's mass landing on its favored child.
	// 500 is uniform (no burstiness); values toward 1000 are burstier.
	// Zero takes DefaultBPer1000.
	BPer1000 int
	// Levels is the cascade depth (Bursty only): the process is
	// self-similar over 2^Levels consecutive arrivals. Zero takes
	// DefaultLevels.
	Levels int
}

// Enabled reports whether the spec generates any arrivals.
func (s Spec) Enabled() bool { return s.PerSec > 0 }

// String renders the spec canonically, defaulted cascade parameters
// filled in.
func (s Spec) String() string {
	if !s.Enabled() {
		return "off"
	}
	n := s.normalized()
	if n.Kind == Poisson {
		return fmt.Sprintf("poisson:seed%d,rate%d", n.Seed, n.PerSec)
	}
	return fmt.Sprintf("bursty:seed%d,rate%d,b%d,lv%d", n.Seed, n.PerSec, n.BPer1000, n.Levels)
}

// normalized fills the defaulted cascade parameters.
func (s Spec) normalized() Spec {
	if s.Kind == Bursty {
		if s.BPer1000 <= 0 {
			s.BPer1000 = DefaultBPer1000
		}
		if s.BPer1000 >= 1000 {
			s.BPer1000 = 999
		}
		if s.Levels <= 0 {
			s.Levels = DefaultLevels
		}
		if s.Levels > 30 {
			s.Levels = 30
		}
	}
	return s
}

// splitmix64 advances x and returns the next value of the stream (the
// same generator internal/fault and internal/dmeta use).
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// stateFor keys a fresh splitmix64 state off (seed, index, salt) — the
// draw for index i never depends on any other index's draws.
func stateFor(seed, index int64, salt uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(index)*0xD1B54A32D192ED03 ^ salt
	return splitmix64(&x) // one mixing round so nearby (seed, index) decorrelate
}

// unit maps a draw to the half-open interval (0, 1] — never zero, so
// -log(u) is always finite.
func unit(r uint64) float64 {
	return float64(r>>11+1) * (1.0 / (1 << 53))
}

// GapAt returns the inter-arrival gap preceding arrival i (i >= 0): the
// virtual time between arrival i-1 and arrival i, where arrival -1 is the
// stream origin. It is a pure function of (Spec, i), allocation-free, and
// the only randomness entry point of the package.
func (s Spec) GapAt(i int64) sim.Duration {
	n := s.normalized()
	if !n.Enabled() {
		return 0
	}
	st := stateFor(n.Seed, i, 0x9E6D)
	gap := -math.Log(unit(splitmix64(&st))) / float64(n.PerSec) // seconds
	if n.Kind == Bursty {
		gap *= n.cascadeAt(i)
	}
	d := sim.Duration(gap * float64(sim.Second))
	if d < sim.Duration(1) {
		d = 1 // arrivals are distinct instants; keeps prefix sums strictly increasing
	}
	return d
}

// cascadeAt computes the b-model factor for arrival i: the product over
// cascade levels of 2b or 2(1-b), where the branch taken follows i's bit
// path inside its aligned 2^Levels block and each internal node's
// orientation (which child is favored) is a pure function of (seed, node).
// Adjacent indices share all but the deepest branches, so the factor — and
// with it the local arrival density — is correlated over runs of every
// dyadic length: the classic multiplicative-cascade construction of
// self-similar traffic. Summing the factor over one aligned block gives
// exactly 2^Levels (each node splits its mass 2b + 2(1-b) = 2), so the
// mean factor is exactly 1 and the offered rate is preserved.
func (s Spec) cascadeAt(i int64) float64 {
	b := float64(s.BPer1000) / 1000
	hi, lo := 2*b, 2*(1-b)
	block := i >> uint(s.Levels) // distinct blocks use distinct node keys
	f := 1.0
	for d := 1; d <= s.Levels; d++ {
		prefix := i >> uint(s.Levels-d) // path from the block root to level d
		node := uint64(block)<<32 ^ uint64(d)<<24 ^ uint64(prefix>>1)
		orient := stateFor(s.Seed, int64(node), 0xB0DE)&1 == 0
		if (prefix&1 == 0) == orient {
			f *= hi
		} else {
			f *= lo
		}
	}
	return f
}

// Gen iterates a spec's arrival instants: Next returns the virtual time of
// the next arrival, as an offset from the stream origin (callers add their
// own base time). The cursor is the only state — every gap still comes
// from GapAt, so a Gen restarted at any index reproduces the tail of the
// sequence exactly. Next is allocation-free.
type Gen struct {
	spec Spec
	i    int64
	at   sim.Time
}

// NewGen returns a generator positioned before arrival 0.
func NewGen(spec Spec) *Gen {
	return &Gen{spec: spec.normalized()}
}

// Next advances to the next arrival and returns its instant (offset from
// the origin).
func (g *Gen) Next() sim.Time {
	g.at += sim.Time(g.spec.GapAt(g.i))
	g.i++
	return g.at
}

// Index reports how many arrivals have been generated.
func (g *Gen) Index() int64 { return g.i }
