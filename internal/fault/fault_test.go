package fault

import (
	"reflect"
	"testing"

	"metaupdate/internal/sim"
)

// judgeSequence runs a fixed synthetic access pattern through p and returns
// the outcomes.
func judgeSequence(p *Plan, n int, remapped func(int64) bool) []Outcome {
	out := make([]Outcome, n)
	for i := 0; i < n; i++ {
		write := i%3 != 0
		lbn := int64((i * 37) % 4000)
		count := 1 + i%8
		out[i] = p.Judge(write, lbn, count, remapped)
	}
	return out
}

func TestDeterminism(t *testing.T) {
	spec := Spec{Seed: 99, TransientPer10k: 300, TornPer10k: 300, LatencyPer10k: 200, BadSectors: 5}
	a := judgeSequence(New(spec, 4096), 500, nil)
	b := judgeSequence(New(spec, 4096), 500, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec and access sequence produced different outcomes")
	}
	faults := 0
	for _, o := range a {
		if o.Kind != None {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("spec with ~8% combined rates injected nothing in 500 accesses")
	}
	c := judgeSequence(New(Spec{Seed: 100, TransientPer10k: 300, TornPer10k: 300,
		LatencyPer10k: 200, BadSectors: 5}, 4096), 500, nil)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical outcome sequences")
	}
}

// TestFixedDrawsPerJudge pins the three-draws invariant: the stream position
// is a function of the access count alone, so changing what one access
// *touches* (here: whether its bad sector is remapped) must not shift the
// outcomes of later accesses.
func TestFixedDrawsPerJudge(t *testing.T) {
	spec := Spec{Seed: 7, TransientPer10k: 500, TornPer10k: 500, BadSectors: 20}
	pa := New(spec, 2048)
	pb := New(spec, 2048)
	bad := pa.BadSectorList()
	if len(bad) != 20 {
		t.Fatalf("got %d bad sectors, want 20", len(bad))
	}
	// Plan a sees the raw media; plan b sees every bad sector remapped, so
	// its accesses take entirely different branches through Judge.
	a := judgeSequence(pa, 300, nil)
	b := judgeSequence(pb, 300, func(int64) bool { return true })
	for i := range a {
		if a[i].Kind == BadSector {
			continue // the divergent access itself may legitimately differ
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("access %d: outcome %+v with remapping vs %+v without — "+
				"draw count depends on the outcome", i, b[i], a[i])
		}
	}
}

func TestBadSectorSetIsPureFunctionOfSpec(t *testing.T) {
	spec := Spec{Seed: 3, BadSectors: 12}
	a := New(spec, 10000)
	listBefore := a.BadSectorList()
	judgeSequence(a, 200, nil) // advance the stream
	if !reflect.DeepEqual(a.BadSectorList(), listBefore) {
		t.Fatal("judging accesses changed the bad-sector set")
	}
	if !reflect.DeepEqual(New(spec, 10000).BadSectorList(), listBefore) {
		t.Fatal("same (spec, sectors) compiled to a different bad-sector set")
	}
	for i := 1; i < len(listBefore); i++ {
		if listBefore[i] <= listBefore[i-1] {
			t.Fatalf("bad-sector list not strictly ascending: %v", listBefore)
		}
	}
	for _, s := range listBefore {
		if s < 0 || s >= 10000 {
			t.Fatalf("bad sector %d outside the media", s)
		}
	}
}

func TestBadSectorCountClampedToMedia(t *testing.T) {
	p := New(Spec{Seed: 1, BadSectors: 100}, 16)
	if got := len(p.BadSectorList()); got != 16 {
		t.Fatalf("got %d bad sectors on a 16-sector disk, want 16", got)
	}
}

func TestJudgeInvariants(t *testing.T) {
	spec := Spec{Seed: 11, TransientPer10k: 400, TornPer10k: 2000,
		LatencyPer10k: 400, BadSectors: 30}
	p := New(spec, 4096)
	for i := 0; i < 2000; i++ {
		write := i%2 == 0
		lbn := int64((i * 53) % 4000)
		count := 1 + i%8
		o := p.Judge(write, lbn, count, nil)
		switch o.Kind {
		case Torn:
			if !write || count < 2 {
				t.Fatalf("torn outcome for write=%v count=%d", write, count)
			}
			if o.TornSectors < 1 || o.TornSectors >= count {
				t.Fatalf("torn prefix %d of %d sectors — must be a proper non-empty prefix",
					o.TornSectors, count)
			}
		case BadSector:
			if o.Sector < lbn || o.Sector >= lbn+int64(count) {
				t.Fatalf("bad sector %d outside access [%d,%d)", o.Sector, lbn, lbn+int64(count))
			}
			if o.TornSectors != int(o.Sector-lbn) {
				t.Fatalf("BadSector TornSectors = %d, want sectors before %d (= %d)",
					o.TornSectors, o.Sector, o.Sector-lbn)
			}
		case Latency:
			if o.Extra != 40*sim.Millisecond {
				t.Fatalf("latency spike %v, want the model's 40ms", o.Extra)
			}
		}
	}
}

func TestNilAndDisabledPlansJudgeClean(t *testing.T) {
	var nilPlan *Plan
	if o := nilPlan.Judge(true, 0, 8, nil); o.Kind != None {
		t.Fatalf("nil plan judged %v", o.Kind)
	}
	off := New(Spec{Seed: 42}, 4096)
	for i := 0; i < 100; i++ {
		if o := off.Judge(true, int64(i), 4, nil); o.Kind != None {
			t.Fatalf("disabled spec judged %v", o.Kind)
		}
	}
	if Spec.Enabled(Spec{}) {
		t.Fatal("zero Spec reports Enabled")
	}
	if (Spec{}).String() != "off" {
		t.Fatalf("zero Spec renders %q", (Spec{}).String())
	}
}
