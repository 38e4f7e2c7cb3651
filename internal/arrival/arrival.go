// Package arrival generates deterministic open-loop arrival processes:
// virtual-time instants at which work is offered to a system regardless of
// whether earlier work has finished. The paper's motivating workloads
// (mail and Usenet servers) are exactly this shape — deliveries arrive on
// the network's schedule, not the disk's — while every benchmark in the
// repository's exhibits is closed-loop (N users with think time), which
// self-throttles in the saturation regime where synchronous metadata
// writes collapse. This package supplies the missing regime.
//
// The process is Poisson (exponential inter-arrival gaps, the memoryless
// baseline), a pure function of (Spec, index) in the internal/fault idiom:
// the gap preceding arrival i is computed from a splitmix64 state keyed by
// (seed, i), never from a running stream, so a generator can be replayed
// from any index, results are byte-identical at any harness worker count,
// and harness cells fingerprinted on the Spec stay memoizable.
package arrival

import (
	"fmt"
	"math"

	"metaupdate/internal/sim"
)

// Kind selects the arrival process.
type Kind uint8

// Poisson draws i.i.d. exponential inter-arrival gaps with mean 1/PerSec:
// the index of dispersion of the resulting counts is 1. It is the only
// process.
const Poisson Kind = 0

func (k Kind) String() string {
	if k == Poisson {
		return "poisson"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

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
}

// Enabled reports whether the spec generates any arrivals.
func (s Spec) Enabled() bool { return s.PerSec > 0 }

// String renders the spec canonically.
func (s Spec) String() string {
	if !s.Enabled() {
		return "off"
	}
	return fmt.Sprintf("%v:seed%d,rate%d", s.Kind, s.Seed, s.PerSec)
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
	if !s.Enabled() {
		return 0
	}
	st := sim.Draw(s.Seed, i, 0x9E6D)
	gap := -math.Log(unit(sim.SplitMix64(&st))) / float64(s.PerSec) // seconds
	d := sim.Duration(gap * float64(sim.Second))
	if d < sim.Duration(1) {
		d = 1 // arrivals are distinct instants; keeps prefix sums strictly increasing
	}
	return d
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
	return &Gen{spec: spec}
}

// Next advances to the next arrival and returns its instant (offset from
// the origin).
func (g *Gen) Next() sim.Time {
	g.at += sim.Time(g.spec.GapAt(g.i))
	g.i++
	return g.at
}
