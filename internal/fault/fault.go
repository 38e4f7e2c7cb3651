// Package fault models disk faults for deterministic injection: transient
// sector errors, permanent bad sectors, torn (partial) writes, and latency
// spikes. The paper assumes these away ("each disk sector is protected by
// error correcting codes, so ... the disk will report an error"); this
// package is how the repository stops hard-coding that assumption while
// keeping every run reproducible.
//
// A Spec is a pure value (it participates in harness cell fingerprints); a
// Plan is the per-disk compiled form the drive model consults on every
// media access. All randomness comes from one seeded splitmix64 stream
// advanced a fixed number of draws per access, so a given access sequence
// always sees the same faults — the property that makes fault scenarios
// memoizable and byte-identical across worker counts and repeated runs.
package fault

import (
	"fmt"

	"metaupdate/internal/sim"
)

// Kind classifies the outcome of one media access.
type Kind uint8

// Access outcomes.
const (
	// None: the access succeeds normally.
	None Kind = iota
	// Transient: the command fails before any sector reaches the media
	// (a checksum or servo error the drive reports); a retry re-rolls.
	Transient
	// BadSector: a permanently unreadable/unwritable sector inside the
	// access range. Deterministic per sector: every access touching it
	// fails until the sector is remapped to a spare.
	BadSector
	// Torn: a multi-sector write stops after TornSectors sectors — the
	// committed prefix is on the media, the rest is not. Each sector is
	// still atomic (the paper's ECC assumption holds per sector).
	Torn
	// Latency: the access succeeds but takes Extra longer (thermal
	// recalibration, internal retries the drive hides).
	Latency
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case BadSector:
		return "bad-sector"
	case Torn:
		return "torn"
	case Latency:
		return "latency"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Outcome is the fault decision for one access.
type Outcome struct {
	Kind Kind
	// Sector is the offending sector (BadSector).
	Sector int64
	// TornSectors is the committed prefix length in sectors (Torn), or the
	// sectors transferred before the bad one (BadSector on a write).
	TornSectors int
	// Extra is added service time (Latency).
	Extra sim.Duration
}

// Spec parameterizes a fault plan. All fields are plain integers so a Spec
// is comparable and fingerprint-friendly. Rates are per ten thousand
// accesses; zero everywhere (or a nil/absent plan) means a fault-free disk.
type Spec struct {
	// Seed selects the deterministic fault stream (and the bad-sector set).
	Seed int64
	// TransientPer10k is the per-access probability of a transient error,
	// in units of 1/10000.
	TransientPer10k int
	// TornPer10k is the per-write probability (multi-sector writes only)
	// of a torn write, in units of 1/10000.
	TornPer10k int
	// LatencyPer10k is the per-access probability of a latency spike, in
	// units of 1/10000.
	LatencyPer10k int
	// BadSectors is the number of permanently bad sectors sprinkled
	// uniformly over the media by Seed.
	BadSectors int
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.TransientPer10k > 0 || s.TornPer10k > 0 || s.LatencyPer10k > 0 || s.BadSectors > 0
}

// String renders the spec canonically (the fault exhibit's title quotes it).
func (s Spec) String() string {
	if !s.Enabled() {
		return "off"
	}
	return fmt.Sprintf("seed%d,tr%d,torn%d,lat%d/%dms,bad%d",
		s.Seed, s.TransientPer10k, s.TornPer10k, s.LatencyPer10k, spikeMS, s.BadSectors)
}

// spikeMS is the length of a latency spike in milliseconds.
const spikeMS = 40

// Judge is what the drive model consults per media access. Implementations
// must be deterministic functions of the access sequence. remapped reports
// whether a sector has been remapped to a spare (remapped sectors cannot
// fault).
type Judge interface {
	Judge(write bool, lbn int64, count int, remapped func(int64) bool) Outcome
}

// Plan is a compiled Spec: the seeded stream plus the bad-sector set for
// one disk. It implements Judge. A nil *Plan judges every access fault-free.
type Plan struct {
	spec  Spec
	state uint64
	bad   map[int64]struct{}
}

// New compiles spec for a disk with the given sector count. The bad-sector
// set is drawn up front from the seed, so it is a pure function of
// (Spec, sectors) and independent of the access sequence.
func New(spec Spec, sectors int64) *Plan {
	p := &Plan{
		spec:  spec,
		state: uint64(spec.Seed)*0x9E3779B97F4A7C15 + 0x1234567,
		bad:   make(map[int64]struct{}, spec.BadSectors),
	}
	if sectors > 0 {
		for len(p.bad) < spec.BadSectors && len(p.bad) < int(sectors) {
			s := int64(sim.SplitMix64(&p.state) % uint64(sectors))
			p.bad[s] = struct{}{}
		}
	}
	return p
}

// Judge decides the outcome of one media access. Exactly three draws are
// taken from the stream per call regardless of outcome, so the stream
// position is a pure function of the access count.
func (p *Plan) Judge(write bool, lbn int64, count int, remapped func(int64) bool) Outcome {
	if p == nil || !p.spec.Enabled() {
		return Outcome{}
	}
	r1 := sim.SplitMix64(&p.state)
	r2 := sim.SplitMix64(&p.state)
	r3 := sim.SplitMix64(&p.state)

	// Permanent bad sectors dominate: they are a property of the media, not
	// of the command. The first (lowest) offending sector in the range is
	// reported, matching a transfer that proceeds in LBN order.
	if len(p.bad) > 0 {
		for s := lbn; s < lbn+int64(count); s++ {
			if _, ok := p.bad[s]; !ok {
				continue
			}
			if remapped != nil && remapped(s) {
				continue
			}
			return Outcome{Kind: BadSector, Sector: s, TornSectors: int(s - lbn)}
		}
	}
	if p.spec.TransientPer10k > 0 && r1%10000 < uint64(p.spec.TransientPer10k) {
		return Outcome{Kind: Transient}
	}
	if write && count > 1 && p.spec.TornPer10k > 0 && r2%10000 < uint64(p.spec.TornPer10k) {
		return Outcome{Kind: Torn, TornSectors: 1 + int(r2>>32)%(count-1)}
	}
	if p.spec.LatencyPer10k > 0 && r3%10000 < uint64(p.spec.LatencyPer10k) {
		return Outcome{Kind: Latency, Extra: spikeMS * sim.Millisecond}
	}
	return Outcome{}
}
