// Package dmeta is the sharded distributed metadata service: N simulated
// metadata nodes, each a full single-machine stack (disk/driver/cache/ffs
// under a configurable ordering scheme) owning an inode-id-range
// partition with its own in-memory inode and dentry trees, connected by
// internal/simnet and driven through a client-side router that maps each
// operation to the owning node.
//
// The design transplants the paper's question into the sharded regime.
// Each logical metadata object is backed by local durable state on its
// owner's file system — an inode id as /i/x<hex> (extra logical links as
// /i/x<hex>.l<n>), a dentry (parent, name → target) as
// /d/p<hex>/<name>=<hex> — so every logical mutation becomes local
// metadata writes whose durability ordering is governed by the node's
// scheme (Conventional's synchronous writes, SchedulerFlag/Chains
// barriers, SoftUpdates rollback, NoOrder delayed writes). Cross-
// partition operations (rename and link spanning owners) run as
// client-coordinated two-phase updates: the prepare writes (link-count
// bump, new dentry) complete on their owners before the commit writes
// (old dentry removal, count release) are issued — the distributed
// analogue of the paper's create/delete ordering rules, with the
// reset-before-reuse rule preserved because an inode's backing file is
// removed only after its last dentry removal has completed.
//
// Partitions split dynamically, CubeFS-metanode style: when a node's
// tree size crosses the configured threshold, it claims a spare node
// from the router (a kClaimSpare RPC), streams the upper half of its
// key range over the simulated network, deletes the moved state
// locally (copy-before-delete — the migration itself obeys the
// no-dangling-pointer rule), narrows its own owned range, and announces
// the split to the router (kSplitDone), which republishes the partition
// map. Requests caught in flight against the old map chase the keys
// through per-node forwarding tables. Every routing and split decision
// draws from a splitmix64 stream keyed by (seed, nodeID) — the
// internal/fault idiom — so the whole message timeline is a pure
// function of the options and the cells memoize byte-identically.
//
// Execution model: the whole cluster — client procs, the router and
// every node's server loop and storage stack — runs on the network's one
// sim.Engine. Router state (partition map, allocation cursors, spare
// pool, split/op counters) is touched only by client procs and the
// router proc, node state only by that node's procs, and every
// interaction between them is a simnet message.
package dmeta

import (
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/ffs"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
	"metaupdate/internal/simnet"
	"metaupdate/internal/trace"
)

// RootIno is the logical inode id of the namespace root.
const RootIno uint64 = 1

// inoSpace bounds the logical inode-id space; initial partitions stripe
// it evenly across the starting nodes.
const inoSpace uint64 = 1 << 30

// Stack is one node's single-machine storage stack, assembled by the
// caller (fsim owns the recipe) so dmeta stays independent of option
// plumbing.
type Stack struct {
	CPU    *sim.CPU
	Disk   *disk.Disk
	Driver *dev.Driver
	Cache  *cache.Cache
	FS     *ffs.FS
}

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the initial active node count; MaxNodes caps growth by
	// dynamic splitting (spare stacks MaxNodes-Nodes are built up front
	// and sit idle until claimed).
	Nodes, MaxNodes int
	// Seed keys every splitmix64 decision stream.
	Seed int64
	// SplitEntries triggers a partition split when a node's tree size
	// (inodes + dentries) exceeds it; 0 disables splitting.
	SplitEntries int
	// Build assembles node id's storage stack. It is called once per
	// node, spares included, from a proc of its own.
	Build func(p *sim.Proc, id int) (*Stack, error)
	// Obs, when non-nil, records spans for router-level operations and
	// the nodes' local file system operations.
	Obs *obs.Recorder
}

// part is one partition map entry: node owns keys in [start, end), and
// allocates fresh inode ids from next. A split exhausts the lower half's
// allocation headroom (CubeFS-style: old partitions go read-mostly, new
// ids land on the new node).
type part struct {
	start, end uint64
	node       int
	next       uint64
}

// Cluster is the distributed metadata service: the node set, the
// client-side router state (partition map + allocation cursors), and the
// cross-partition statistics the experiments report.
type Cluster struct {
	eng      *sim.Engine
	cfg      Config
	obs      *obs.Recorder
	clientEp *simnet.Endpoint
	nodes    []*Node // index i holds node id i+1
	active   int
	parts    []part
	rng      uint64 // router decision stream, keyed (Seed, node 0)

	// Counters and latency digests for the exhibit tables.
	Ops, Errs, CrossOps, Splits, Migrated int64
	OpLat, CrossLat                       trace.Digest

	crashed bool // set by Crash: the cluster is dead, Shutdown is a no-op

	// TestHookPrepared, when set, runs on the coordinating client proc
	// after a rename's prepare phase is durable on the owners and before
	// any commit message is sent — the crash-consistency tests park here.
	TestHookPrepared func(p *sim.Proc)
}

// rngFor returns the initial stream state for (seed, id).
func rngFor(seed int64, id int) uint64 {
	return (uint64(seed)^(uint64(id)*0x9E3779B97F4A7C15))*0x9E3779B97F4A7C15 + 0x1234567
}

// New assembles a cluster on eng, net's engine. Each node's stack is
// built and initialized by a proc of its own, and the server and router
// loops are spawned before New returns.
func New(eng *sim.Engine, net *simnet.Network, cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("dmeta: need at least one node")
	}
	if cfg.MaxNodes < cfg.Nodes {
		cfg.MaxNodes = cfg.Nodes
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("dmeta: Config.Build is required")
	}
	c := &Cluster{
		eng:      eng,
		cfg:      cfg,
		obs:      cfg.Obs,
		clientEp: net.Endpoint(0),
		active:   cfg.Nodes,
		rng:      rngFor(cfg.Seed, 0),
	}

	// Stripe the id space over the initial nodes; node 1's partition
	// holds the root and starts allocating above it. Spares own the
	// empty range until a split hands them one.
	stride := (inoSpace - 1) / uint64(cfg.Nodes)
	ranges := make([][2]uint64, cfg.MaxNodes)
	for i := 0; i < cfg.Nodes; i++ {
		start := 1 + uint64(i)*stride
		end := start + stride
		if i == cfg.Nodes-1 {
			end = inoSpace
		}
		next := start
		if i == 0 {
			next = RootIno + 1
		}
		ranges[i] = [2]uint64{start, end}
		c.parts = append(c.parts, part{start: start, end: end, node: i + 1, next: next})
	}

	// Build and initialize every node, one init proc each.
	c.nodes = make([]*Node, cfg.MaxNodes)
	errs := make([]error, cfg.MaxNodes)
	for id := 1; id <= cfg.MaxNodes; id++ {
		id := id
		ep := net.Endpoint(id)
		eng.Spawn(fmt.Sprintf("init%d", id), func(p *sim.Proc) {
			st, err := cfg.Build(p, id)
			if err != nil {
				errs[id-1] = fmt.Errorf("dmeta: build node %d: %w", id, err)
				return
			}
			n, err := newNode(c, id, st, ep, p, ranges[id-1][0], ranges[id-1][1])
			if err != nil {
				errs[id-1] = fmt.Errorf("dmeta: init node %d: %w", id, err)
				return
			}
			if id == 1 {
				if err := n.installRoot(p); err != nil {
					errs[id-1] = fmt.Errorf("dmeta: install root: %w", err)
					return
				}
			}
			c.nodes[id-1] = n
		})
	}
	eng.Run()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for _, n := range c.nodes {
		eng.Spawn(fmt.Sprintf("mds%d", n.id), n.serve)
	}
	eng.Spawn("router", c.router)
	return c, nil
}

// router serves the cluster-control requests nodes address to endpoint 0
// (replies to client Calls never surface here — they are demultiplexed
// by request id). It owns the spare pool and the partition map, so
// claim and publish decisions are serialized in message-delivery order.
func (c *Cluster) router(p *sim.Proc) {
	for {
		m, ok := c.clientEp.Recv(p)
		if !ok {
			return
		}
		r := m.Payload.(req)
		switch r.Kind {
		case kClaimSpare:
			c.clientEp.Reply(m, respSize, resp{Target: uint64(c.activateSpare())})
		case kSplitDone:
			c.finishSplit(m.From, int(r.Target), r.Ino, r.Moved)
		default:
			panic(fmt.Sprintf("dmeta: router got request kind %d from node %d", r.Kind, m.From))
		}
	}
}

// Engine returns the engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// ActiveNodes returns the number of nodes currently owning a partition.
func (c *Cluster) ActiveNodes() int { return c.active }

// Node returns node id's handle (1-based, spares included).
func (c *Cluster) Node(id int) *Node { return c.nodes[id-1] }

// Forwards sums the nodes' forwarded-request counters.
func (c *Cluster) Forwards() int64 {
	var n int64
	for _, nd := range c.nodes {
		n += nd.forwards
	}
	return n
}

// ownerOf returns the node id owning key under the router's (possibly
// momentarily stale) map. The map is tiny (≤ MaxNodes entries) so a
// linear scan is fine and trivially deterministic.
func (c *Cluster) ownerOf(key uint64) int {
	for i := range c.parts {
		if key >= c.parts[i].start && key < c.parts[i].end {
			return c.parts[i].node
		}
	}
	panic(fmt.Sprintf("dmeta: key %d outside the partition map", key))
}

// allocIno draws a fresh logical inode id: the router stream picks among
// partitions with allocation headroom, then takes that partition's next
// sequential id.
func (c *Cluster) allocIno() uint64 {
	r := sim.SplitMix64(&c.rng)
	elig := make([]int, 0, len(c.parts))
	for i := range c.parts {
		if c.parts[i].next < c.parts[i].end {
			elig = append(elig, i)
		}
	}
	if len(elig) == 0 {
		panic("dmeta: inode-id space exhausted")
	}
	pi := elig[int(r%uint64(len(elig)))]
	ino := c.parts[pi].next
	c.parts[pi].next++
	return ino
}

// activateSpare claims the next spare node id, or 0 when the cluster is
// at MaxNodes.
func (c *Cluster) activateSpare() int {
	if c.active >= c.cfg.MaxNodes {
		return 0
	}
	c.active++
	return c.active
}

// finishSplit publishes a completed split: src's partition [start, end)
// becomes [start, m) and dst owns [m, end). Allocation headroom above m
// moves with the range.
func (c *Cluster) finishSplit(src, dst int, m uint64, moved int) {
	for i := range c.parts {
		pt := &c.parts[i]
		if pt.node != src || m < pt.start || m >= pt.end {
			continue
		}
		next := pt.next
		if next < m {
			next = m
		}
		np := part{start: m, end: pt.end, node: dst, next: next}
		pt.end = m
		if pt.next > m {
			pt.next = m
		}
		c.parts = append(c.parts, part{})
		copy(c.parts[i+2:], c.parts[i+1:])
		c.parts[i+1] = np
		c.Splits++
		c.Migrated += int64(moved)
		return
	}
	panic(fmt.Sprintf("dmeta: finishSplit: no partition of node %d contains %d", src, m))
}

// call issues one RPC to the owner of key and decodes the reply.
func (c *Cluster) call(p *sim.Proc, key uint64, r req) resp {
	m := c.clientEp.Call(p, c.ownerOf(key), reqSize(r), r)
	return m.Payload.(resp)
}

// record finishes one client-visible operation's accounting.
func (c *Cluster) record(p *sim.Proc, t0 sim.Time, cross bool, err error) {
	c.Ops++
	if err != nil {
		c.Errs++
	}
	lat := (p.Now() - t0).Milliseconds()
	c.OpLat.Add(lat)
	if cross {
		c.CrossOps++
		c.CrossLat.Add(lat)
	}
}

// Lookup resolves (parent, name) to a logical inode id.
func (c *Cluster) Lookup(p *sim.Proc, parent uint64, name string) (uint64, error) {
	sp := c.obs.Begin(p, obs.OpLookup)
	defer c.obs.End(p, sp)
	t0 := p.Now()
	rp := c.call(p, parent, req{Kind: kLookup, Parent: parent, Name: name})
	err := rp.Code.err()
	c.record(p, t0, false, err)
	return rp.Target, err
}

// Create allocates a logical inode and links it under (parent, name).
// When the inode's owner differs from the parent's, the inode write is
// the prepare and the dentry add the commit (rule 1: never point at an
// uninitialized resource).
func (c *Cluster) Create(p *sim.Proc, parent uint64, name string) (uint64, error) {
	return c.create(p, parent, name, false)
}

// Mkdir creates a logical directory; its future dentries ride on the new
// inode id's owner.
func (c *Cluster) Mkdir(p *sim.Proc, parent uint64, name string) (uint64, error) {
	return c.create(p, parent, name, true)
}

func (c *Cluster) create(p *sim.Proc, parent uint64, name string, dir bool) (uint64, error) {
	op := obs.OpCreate
	if dir {
		op = obs.OpMkdir
	}
	sp := c.obs.Begin(p, op)
	defer c.obs.End(p, sp)
	t0 := p.Now()
	ino := c.allocIno()
	cross := c.ownerOf(ino) != c.ownerOf(parent)
	if rp := c.call(p, ino, req{Kind: kCreate, Ino: ino, Dir: dir}); rp.Code != errOK {
		err := rp.Code.err()
		c.record(p, t0, cross, err)
		return 0, err
	}
	rp := c.call(p, parent, req{Kind: kAddDentry, Parent: parent, Name: name, Target: ino})
	if rp.Code != errOK {
		// Abort: unlink the prepared inode (it has no referent yet).
		c.call(p, ino, req{Kind: kDecLink, Ino: ino})
		err := rp.Code.err()
		c.record(p, t0, cross, err)
		return 0, err
	}
	c.record(p, t0, cross, nil)
	return ino, nil
}

// Link adds (parent, name) as another reference to target. The
// link-count bump on target's owner is the prepare, the dentry add the
// commit.
func (c *Cluster) Link(p *sim.Proc, target, parent uint64, name string) error {
	sp := c.obs.Begin(p, obs.OpLink)
	defer c.obs.End(p, sp)
	t0 := p.Now()
	cross := c.ownerOf(target) != c.ownerOf(parent)
	if rp := c.call(p, target, req{Kind: kIncLink, Ino: target, MustFile: true}); rp.Code != errOK {
		err := rp.Code.err()
		c.record(p, t0, cross, err)
		return err
	}
	rp := c.call(p, parent, req{Kind: kAddDentry, Parent: parent, Name: name, Target: target})
	if rp.Code != errOK {
		c.call(p, target, req{Kind: kDecLink, Ino: target})
		err := rp.Code.err()
		c.record(p, t0, cross, err)
		return err
	}
	c.record(p, t0, cross, nil)
	return nil
}

// Unlink removes (parent, name); the target inode is freed when this was
// its last reference. Dentry removal precedes the count release (rule 2:
// never reset a pointer before nullifying its references — here the
// inode's backing file outlives every dentry to it). Directories are
// refused.
func (c *Cluster) Unlink(p *sim.Proc, parent uint64, name string) error {
	sp := c.obs.Begin(p, obs.OpUnlink)
	defer c.obs.End(p, sp)
	t0 := p.Now()
	rd := c.call(p, parent, req{Kind: kRemoveDentry, Parent: parent, Name: name})
	if rd.Code != errOK {
		err := rd.Code.err()
		c.record(p, t0, false, err)
		return err
	}
	cross := c.ownerOf(rd.Target) != c.ownerOf(parent)
	rp := c.call(p, rd.Target, req{Kind: kDecLink, Ino: rd.Target, MustFile: true})
	if rp.Code != errOK {
		// Directory (or vanished target): compensate by restoring the
		// dentry so the namespace stays consistent.
		c.call(p, parent, req{Kind: kAddDentry, Parent: parent, Name: name, Target: rd.Target})
		err := rp.Code.err()
		c.record(p, t0, cross, err)
		return err
	}
	c.record(p, t0, cross, nil)
	return nil
}

// Rename moves (sparent, sname) to (dparent, dname), replacing an
// existing destination. It is the canonical two-phase cross-partition
// operation: prepares — a link-count bump covering the transient second
// name, then the destination dentry add — complete before the commits —
// source dentry removal, count release, and (on replace) the old
// target's count release — are sent. A name renamed onto itself is left
// alone.
func (c *Cluster) Rename(p *sim.Proc, sparent uint64, sname string, dparent uint64, dname string) error {
	sp := c.obs.Begin(p, obs.OpRename)
	defer c.obs.End(p, sp)
	t0 := p.Now()
	rl := c.call(p, sparent, req{Kind: kLookup, Parent: sparent, Name: sname})
	if rl.Code != errOK {
		err := rl.Code.err()
		c.record(p, t0, false, err)
		return err
	}
	if sparent == dparent && sname == dname {
		c.record(p, t0, false, nil)
		return nil
	}
	ino := rl.Target
	iOwner := c.ownerOf(ino)
	cross := iOwner != c.ownerOf(sparent) || iOwner != c.ownerOf(dparent) ||
		c.ownerOf(sparent) != c.ownerOf(dparent)
	// Prepare: the count bump keeps the inode live while two names point
	// at it; the destination add happens before the source removal.
	if rp := c.call(p, ino, req{Kind: kIncLink, Ino: ino, MustFile: true}); rp.Code != errOK {
		err := rp.Code.err()
		c.record(p, t0, cross, err)
		return err
	}
	ra := c.call(p, dparent, req{Kind: kAddDentry, Parent: dparent, Name: dname, Target: ino, Replace: true})
	if ra.Code != errOK {
		c.call(p, ino, req{Kind: kDecLink, Ino: ino})
		err := ra.Code.err()
		c.record(p, t0, cross, err)
		return err
	}
	if hook := c.TestHookPrepared; hook != nil {
		hook(p)
	}
	// Commit: drop the source name, release the transient count, and
	// release a replaced target's reference.
	c.call(p, sparent, req{Kind: kRemoveDentry, Parent: sparent, Name: sname})
	c.call(p, ino, req{Kind: kDecLink, Ino: ino})
	if ra.Old != 0 && ra.Old != ino {
		c.call(p, ra.Old, req{Kind: kDecLink, Ino: ra.Old})
	}
	c.record(p, t0, cross, nil)
	return nil
}

// SyncAll flushes every node's file system (delayed writes included) and
// returns when the cluster is quiescent. The flushes run as one kSync
// RPC per node, issued concurrently.
func (c *Cluster) SyncAll() {
	remaining := len(c.nodes)
	for _, n := range c.nodes {
		id := n.id
		c.eng.Spawn(fmt.Sprintf("sync%d", id), func(p *sim.Proc) {
			c.clientEp.Call(p, id, reqSize(req{Kind: kSync}), req{Kind: kSync})
			remaining--
		})
	}
	c.eng.RunWhile(func() bool { return remaining > 0 })
}

// Shutdown stops every node (syncer halted, endpoint closed) via kShutdown
// RPCs, closes the client endpoint so the router exits, drains the engine
// and closes every node's cache. After Crash the machines are dead and the
// clocks are frozen, so there is nothing left to wind down.
func (c *Cluster) Shutdown() {
	if c.crashed {
		return
	}
	remaining := len(c.nodes)
	for _, n := range c.nodes {
		id := n.id
		c.eng.Spawn(fmt.Sprintf("stop%d", id), func(p *sim.Proc) {
			c.clientEp.Call(p, id, reqSize(req{Kind: kShutdown}), req{Kind: kShutdown})
			remaining--
		})
	}
	c.eng.RunWhile(func() bool { return remaining > 0 })
	c.clientEp.Close()
	c.eng.Run()
	for _, n := range c.nodes {
		n.St.Cache.Close()
	}
}

// Crash snapshots every node's media as of a simultaneous power failure
// at time t (the engine must already have run up to t): in-flight disk
// state is resolved by each node's driver crash model, and the returned
// images are independent copies.
func (c *Cluster) Crash(t sim.Time) [][]byte {
	c.crashed = true
	imgs := make([][]byte, len(c.nodes))
	for i, n := range c.nodes {
		n.St.Driver.Crash(t)
		imgs[i] = n.St.Disk.CloneImage()
	}
	return imgs
}
