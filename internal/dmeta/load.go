package dmeta

import (
	"fmt"

	"metaupdate/internal/sim"
)

// LoadSpec is the deterministic metadata workload the distributed
// exhibit drives: Clients concurrent client processes, each issuing Ops
// operations drawn from a per-client splitmix64 stream (keyed off Seed,
// disjoint from the node streams).
type LoadSpec struct {
	Clients int
	Ops     int
	Seed    int64
}

// LoadResult summarizes one load run in virtual time.
type LoadResult struct {
	Wall sim.Duration
	Ops  int64
	Errs int64
}

// Load runs the workload to completion on the cluster's engine. Each
// client makes its own directory under the root (spreading dentry
// traffic off the root partition) and then mixes creates, lookups,
// cross-directory renames, links, and unlinks over its own files;
// renames target other clients' directories, so cross-partition
// two-phase traffic appears as soon as there is more than one partition.
func (c *Cluster) Load(spec LoadSpec) LoadResult {
	if spec.Clients < 1 {
		spec.Clients = 1
	}
	start := c.eng.Now()
	ops0, errs0 := c.Ops, c.Errs
	remaining := spec.Clients
	for u := 0; u < spec.Clients; u++ {
		u := u
		c.eng.Spawn(fmt.Sprintf("client%d", u), func(p *sim.Proc) {
			c.clientLoad(p, u, spec)
			remaining--
		})
	}
	c.eng.RunWhile(func() bool { return remaining > 0 })
	return LoadResult{Wall: c.eng.Now() - start, Ops: c.Ops - ops0, Errs: c.Errs - errs0}
}

// fileRef tracks one name a client owns.
type fileRef struct {
	parent uint64
	name   string
	ino    uint64
}

func (c *Cluster) clientLoad(p *sim.Proc, u int, spec LoadSpec) {
	// Client streams are keyed past the node-id space so they never
	// collide with router/node decision streams.
	rng := rngFor(spec.Seed, 1_000_000+u)
	var files []fileRef
	seq := 0

	dir, err := c.Mkdir(p, RootIno, fmt.Sprintf("d%d", u))
	if err != nil {
		panic(fmt.Sprintf("dmeta: client %d: mkdir home: %v", u, err))
	}

	create := func() {
		name := fmt.Sprintf("c%d.f%d", u, seq)
		seq++
		ino, err := c.Create(p, dir, name)
		if err != nil {
			panic(fmt.Sprintf("dmeta: client %d: create %s: %v", u, name, err))
		}
		files = append(files, fileRef{parent: dir, name: name, ino: ino})
	}

	for i := 1; i < spec.Ops; i++ {
		r := splitmix64(&rng)
		x := r % 100
		pick := func() int { return int((r >> 32) % uint64(len(files))) }
		switch {
		case x < 40 || len(files) == 0:
			create()
		case x < 55:
			f := files[pick()]
			if _, err := c.Lookup(p, f.parent, f.name); err != nil {
				panic(fmt.Sprintf("dmeta: client %d: lookup %s: %v", u, f.name, err))
			}
		case x < 70:
			// Move one of our files, usually into another client's
			// directory — the cross-partition two-phase path.
			fi := pick()
			f := files[fi]
			v := int((r >> 16) % uint64(spec.Clients))
			dst := dir
			if d, err := c.Lookup(p, RootIno, fmt.Sprintf("d%d", v)); err == nil {
				dst = d
			} // not created yet: stay home (deterministic fallback)
			name := fmt.Sprintf("c%d.r%d", u, seq)
			seq++
			if err := c.Rename(p, f.parent, f.name, dst, name); err != nil {
				panic(fmt.Sprintf("dmeta: client %d: rename %s: %v", u, f.name, err))
			}
			files[fi] = fileRef{parent: dst, name: name, ino: f.ino}
		case x < 80:
			f := files[pick()]
			name := fmt.Sprintf("c%d.l%d", u, seq)
			seq++
			if err := c.Link(p, f.ino, dir, name); err != nil {
				panic(fmt.Sprintf("dmeta: client %d: link %s: %v", u, f.name, err))
			}
			files = append(files, fileRef{parent: dir, name: name, ino: f.ino})
		default:
			fi := pick()
			f := files[fi]
			if err := c.Unlink(p, f.parent, f.name); err != nil {
				panic(fmt.Sprintf("dmeta: client %d: unlink %s: %v", u, f.name, err))
			}
			files[fi] = files[len(files)-1]
			files = files[:len(files)-1]
		}
	}
}
