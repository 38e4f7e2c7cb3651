// Package scenario is the open-loop workload library: deterministic
// operation streams shaped like the server workloads the paper names as
// its motivating cases (mail spools, software builds, caches), driven
// against a simulated file system or metadata cluster at the offered load
// an internal/arrival process dictates.
//
// A Stream is a pure function of the operation index — like the arrival
// processes, no running RNG stream, no hidden state — so a scenario can
// be replayed from any index and embedded in memoized harness cells
// whose fingerprints cover the scenario name and seed. Each stream is self-consistent by construction:
// an operation only references files that earlier indices created
// (rounds reference their own round's file, removals trail a fixed
// retention window behind), so at modest overlap every op finds its
// target. Under deep open-loop overlap an op can overtake the create it
// depends on; the driver counts the resulting ErrNotExist as a soft
// error rather than failing the run — in virtual time the overtaking is
// itself deterministic, so soft-error counts are reproducible.
package scenario

import (
	"fmt"
	"strings"

	"metaupdate/internal/sim"
)

// Kind classifies a scenario operation.
type Kind uint8

// The operation vocabulary — the paper's metadata hot path (create,
// rename, remove, lookup) plus the data touches (write-on-create, read,
// fsync) that make the mix realistic.
const (
	KLookup Kind = iota
	KCreate      // create, then write Size bytes
	KRename
	KUnlink
	KRead // lookup, then read up to Size bytes
	KFsync
	// NumKinds sizes per-kind arrays.
	NumKinds
)

var kindNames = [NumKinds]string{"lookup", "create", "rename", "unlink", "read", "fsync"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one scenario operation. Dir/Dir2 index the stream's fixed
// directory set (0 .. NDirs-1); Dir2/Name2 are the rename destination.
// Size is the bytes written after a create or the read-buffer size.
type Op struct {
	Kind  Kind
	Dir   int
	Name  string
	Dir2  int
	Name2 string
	Size  int
}

// Stream is a deterministic operation sequence: At must be a pure
// function of i (any i >= 0), so streams replay from any index and
// memoize cleanly.
type Stream interface {
	Name() string
	NDirs() int
	At(i int64) Op
}

// Names lists the built-in scenarios.
func Names() []string { return []string{"mail", "build", "webcache"} }

// New returns a built-in stream by name. The seed perturbs file sizes
// only — the op structure is fixed, so two seeds offer the same mix.
func New(name string, seed int64) (Stream, error) {
	switch name {
	case "mail":
		return mailStream{seed}, nil
	case "build":
		return buildStream{seed}, nil
	case "webcache":
		return webStream{seed}, nil
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
}

// sizeIn maps a draw to [lo, hi] bytes.
func sizeIn(seed, j int64, salt uint64, lo, hi int) int {
	return lo + int(sim.Draw(seed, j, salt)%uint64(hi-lo+1))
}

// mailStream models maildir-style spool churn — the paper's mail-server
// motivating case. Delivery round j (operations 5j .. 5j+4) writes a
// message to a tmp name, fsyncs it (the MTA's durability point), renames
// it into the mailbox, reads it back (the reader process), and expires
// the message delivered mailWindow rounds earlier. Eight mailbox
// directories are used round-robin, so ~mailWindow messages are live in
// steady state.
type mailStream struct{ seed int64 }

const (
	mailDirs   = 8
	mailWindow = 256
)

func (mailStream) Name() string { return "mail" }
func (mailStream) NDirs() int   { return mailDirs }

func (m mailStream) At(i int64) Op {
	j, phase := i/5, i%5
	d := int(j % mailDirs)
	tmp := fmt.Sprintf("tmp%d", j)
	msg := fmt.Sprintf("msg%d", j)
	switch phase {
	case 0:
		return Op{Kind: KCreate, Dir: d, Name: tmp, Size: sizeIn(m.seed, j, 0x3A11, 2048, 16384)}
	case 1:
		return Op{Kind: KFsync, Dir: d, Name: tmp}
	case 2:
		return Op{Kind: KRename, Dir: d, Name: tmp, Dir2: d, Name2: msg}
	case 3:
		return Op{Kind: KRead, Dir: d, Name: msg, Size: 16384}
	default:
		if j >= mailWindow {
			old := j - mailWindow
			return Op{Kind: KUnlink, Dir: int(old % mailDirs), Name: fmt.Sprintf("msg%d", old)}
		}
		return Op{Kind: KLookup, Dir: d, Name: msg}
	}
}

// buildStream models a build farm: round j writes a source file, the
// "compiler" reads it, emits an object file into a parallel obj
// directory, stats the source again (dependency check), and a trailing
// clean pass removes the object built buildWindow rounds earlier.
// Directories 0-3 hold sources, 4-7 objects.
type buildStream struct{ seed int64 }

const (
	buildFanout = 4
	buildWindow = 128
)

func (buildStream) Name() string { return "build" }
func (buildStream) NDirs() int   { return 2 * buildFanout }

func (b buildStream) At(i int64) Op {
	j, phase := i/5, i%5
	src, obj := int(j%buildFanout), buildFanout+int(j%buildFanout)
	s := fmt.Sprintf("s%d.c", j)
	o := fmt.Sprintf("o%d.o", j)
	switch phase {
	case 0:
		return Op{Kind: KCreate, Dir: src, Name: s, Size: sizeIn(b.seed, j, 0xB01D, 1024, 8192)}
	case 1:
		return Op{Kind: KRead, Dir: src, Name: s, Size: 8192}
	case 2:
		return Op{Kind: KCreate, Dir: obj, Name: o, Size: sizeIn(b.seed, j, 0xB02D, 2048, 24576)}
	case 3:
		return Op{Kind: KLookup, Dir: src, Name: s}
	default:
		if j >= buildWindow {
			old := j - buildWindow
			return Op{Kind: KUnlink, Dir: buildFanout + int(old%buildFanout), Name: fmt.Sprintf("o%d.o", old)}
		}
		return Op{Kind: KLookup, Dir: obj, Name: o}
	}
}

// webStream models a web-cache fill: round j admits an object into one
// of four shard directories, serves it once, and evicts the object
// admitted webWindow rounds earlier — a create/read/unlink mix dominated
// by data volume rather than metadata ordering.
type webStream struct{ seed int64 }

const (
	webDirs   = 4
	webWindow = 512
)

func (webStream) Name() string { return "webcache" }
func (webStream) NDirs() int   { return webDirs }

func (w webStream) At(i int64) Op {
	j, phase := i/3, i%3
	d := int(j % webDirs)
	name := fmt.Sprintf("c%d", j)
	switch phase {
	case 0:
		return Op{Kind: KCreate, Dir: d, Name: name, Size: sizeIn(w.seed, j, 0x3EB5, 4096, 65536)}
	case 1:
		return Op{Kind: KRead, Dir: d, Name: name, Size: 65536}
	default:
		if j >= webWindow {
			old := j - webWindow
			return Op{Kind: KUnlink, Dir: int(old % webDirs), Name: fmt.Sprintf("c%d", old)}
		}
		return Op{Kind: KRead, Dir: d, Name: name, Size: 65536}
	}
}
