package dmeta

import (
	"errors"
	"fmt"
	"sort"

	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
	"metaupdate/internal/simnet"
)

// kind is the wire-protocol operation code.
type kind uint8

const (
	kLookup kind = iota
	kCreate
	kAddDentry
	kRemoveDentry
	kIncLink
	kDecLink
	kMigrate

	// Cluster-control requests. kClaimSpare and kSplitDone go node →
	// router (endpoint 0); kSync and kShutdown go host → node. None is
	// routed by partition key.
	kClaimSpare
	kSplitDone
	kSync
	kShutdown
)

// req is one node request. Routing key: Parent for dentry-tree ops, Ino
// for inode-tree ops; everything else is addressed explicitly and never
// forwarded. Field reuse for control requests: kMigrate carries the
// migrated range as [Ino, Target) and marks its last batch Final;
// kSplitDone carries the split key in Ino, the new owner in Target and
// the migrated entry count in Moved.
type req struct {
	Kind     kind
	Ino      uint64
	Parent   uint64
	Name     string
	Target   uint64
	Dir      bool
	Replace  bool
	MustFile bool
	Final    bool
	Moved    int
	Ents     []migEnt
}

// routingKey returns the partition key a request must be owned under.
func (r req) routingKey() (uint64, bool) {
	switch r.Kind {
	case kLookup, kAddDentry, kRemoveDentry:
		return r.Parent, true
	case kCreate, kIncLink, kDecLink:
		return r.Ino, true
	}
	return 0, false
}

// resp is one node reply.
type resp struct {
	Code   errCode
	Target uint64
	Old    uint64
}

// errCode carries logical errors over the wire; unexpected local file
// system failures panic at the node (a metadata node's local stack is
// sized so it cannot legitimately run out of space mid-experiment).
type errCode uint8

const (
	errOK errCode = iota
	errExist
	errNotExist
	errIsDir
)

func (e errCode) err() error {
	switch e {
	case errOK:
		return nil
	case errExist:
		return ffs.ErrExist
	case errNotExist:
		return ffs.ErrNotExist
	case errIsDir:
		return ffs.ErrIsDir
	}
	return fmt.Errorf("dmeta: error code %d", e)
}

// reqSize models the request's on-wire size.
func reqSize(r req) int {
	n := 72 + len(r.Name)
	for _, e := range r.Ents {
		n += 32
		for _, d := range e.Dentries {
			n += 24 + len(d.Name)
		}
	}
	return n
}

const respSize = 40

// migEnt is one migrated key: the inode (if the key has one) plus every
// dentry whose parent is the key.
type migEnt struct {
	Key      uint64
	HasInode bool
	Nlink    int
	Dir      bool
	Dentries []migDent
}

type migDent struct {
	Name   string
	Target uint64
}

// inodeMeta is one logical inode's in-memory record.
type inodeMeta struct {
	nlink int
	dir   bool
}

// fwdRange is one forwarding-table entry: keys in [start, end) were
// handed to dst by a past split of this node.
type fwdRange struct {
	start, end uint64
	dst        int
}

// Node is one metadata server: a local storage stack, the owned slices
// of the inode and dentry trees, and the mapping of logical objects to
// local backing files. A node never reads router state; its view of the
// partition map is its own range [start, end) plus the forwarding table
// of ranges it gave away, kept accurate by the split protocol itself.
type Node struct {
	c  *Cluster
	id int
	St *Stack
	ep *simnet.Endpoint

	// rng is this node's decision stream, keyed (Seed, id).
	rng uint64

	// start/end is the owned key range; fwd records where previously
	// owned ranges went (requests chase moved keys through chains of
	// such tables until they reach the current owner).
	start, end uint64
	fwd        []fwdRange
	forwards   int64

	inodeTree  map[uint64]*inodeMeta
	dentryTree map[uint64]map[string]uint64
	nden       int

	// localIno maps a logical inode id to its backing file; localDir maps
	// a logical parent id to the local directory holding its dentry files.
	localIno map[uint64]ffs.Ino
	localDir map[uint64]ffs.Ino
	iDir     ffs.Ino
	dDir     ffs.Ino

	splitting bool
	receiving bool // mid-migration destination: owned range still filling
	noSpares  bool // the router reported spare exhaustion; stop asking
}

func newNode(c *Cluster, id int, st *Stack, ep *simnet.Endpoint, p *sim.Proc, start, end uint64) (*Node, error) {
	n := &Node{
		c: c, id: id, St: st,
		ep:         ep,
		rng:        rngFor(c.cfg.Seed, id),
		start:      start,
		end:        end,
		inodeTree:  make(map[uint64]*inodeMeta),
		dentryTree: make(map[uint64]map[string]uint64),
		localIno:   make(map[uint64]ffs.Ino),
		localDir:   make(map[uint64]ffs.Ino),
	}
	var err error
	if n.iDir, err = st.FS.Mkdir(p, ffs.RootIno, inoDirName); err != nil {
		return nil, err
	}
	if n.dDir, err = st.FS.Mkdir(p, ffs.RootIno, dentDirName); err != nil {
		return nil, err
	}
	return n, nil
}

// installRoot seeds the namespace root on its owner.
func (n *Node) installRoot(p *sim.Proc) error {
	lino, err := n.St.FS.Create(p, n.iDir, inoName(RootIno))
	if err != nil {
		return err
	}
	n.inodeTree[RootIno] = &inodeMeta{nlink: 1, dir: true}
	n.localIno[RootIno] = lino
	return nil
}

// entries is the split-policy size signal.
func (n *Node) entries() int { return len(n.inodeTree) + n.nden }

func (n *Node) owns(key uint64) bool { return key >= n.start && key < n.end }

// serve is the node's server loop: drain the inbox in delivery order,
// checking the split policy after every request.
func (n *Node) serve(p *sim.Proc) {
	for {
		m, ok := n.ep.Recv(p)
		if !ok {
			return
		}
		n.handle(p, m)
		n.maybeSplit(p)
	}
}

func (n *Node) handle(p *sim.Proc, m simnet.Message) {
	r := m.Payload.(req)
	if key, routed := r.routingKey(); routed && !n.owns(key) {
		// The partition moved while this request was in flight (or
		// queued behind a split): pass it to where the key went; the
		// reply goes straight back to the client. The key may have moved
		// again since — the forwarding tables chain.
		n.forward(m, key)
		return
	}
	switch r.Kind {
	case kSync:
		n.St.FS.Sync(p)
		n.ep.Reply(m, respSize, resp{})
		return
	case kShutdown:
		n.St.Cache.StopSyncer()
		n.ep.Reply(m, respSize, resp{})
		n.ep.Close()
		return
	}
	n.ep.Reply(m, respSize, n.apply(p, r))
}

// forward relays a request for a key this node gave away in a split.
func (n *Node) forward(m simnet.Message, key uint64) {
	n.forwards++
	for _, f := range n.fwd {
		if key >= f.start && key < f.end {
			n.ep.Forward(m, f.dst)
			return
		}
	}
	panic(fmt.Sprintf("dmeta: node %d got request for key %d outside its range [%d,%d) and forwarding table", n.id, key, n.start, n.end))
}

// apply executes one owned request against the trees and the local
// backing files (whose write ordering is the node's scheme's business).
func (n *Node) apply(p *sim.Proc, r req) resp {
	fs := n.St.FS
	switch r.Kind {
	case kLookup:
		// Pure in-memory tree walk.
		n.St.CPU.Use(p, 30*sim.Microsecond)
		t, ok := n.dentryTree[r.Parent][r.Name]
		if !ok {
			return resp{Code: errNotExist}
		}
		return resp{Target: t}

	case kCreate:
		if _, dup := n.inodeTree[r.Ino]; dup {
			return resp{Code: errExist}
		}
		lino, err := fs.Create(p, n.iDir, inoName(r.Ino))
		n.check(err, "create inode")
		n.inodeTree[r.Ino] = &inodeMeta{nlink: 1, dir: r.Dir}
		n.localIno[r.Ino] = lino
		return resp{}

	case kAddDentry:
		dm := n.dentryTree[r.Parent]
		old, exists := dm[r.Name]
		if exists && !r.Replace {
			return resp{Code: errExist}
		}
		if exists && old == r.Target {
			return resp{Old: old}
		}
		pd := n.localParent(p, r.Parent)
		// Replace adds the new entry file before unlinking the old one,
		// so no instant on disk has the name pointing nowhere.
		_, err := fs.Create(p, pd, dentName(r.Name, r.Target))
		n.check(err, "add dentry")
		if exists {
			n.check(fs.Unlink(p, pd, dentName(r.Name, old)), "replace dentry")
		} else {
			n.nden++
		}
		if dm == nil {
			dm = make(map[string]uint64)
			n.dentryTree[r.Parent] = dm
		}
		dm[r.Name] = r.Target
		return resp{Old: old}

	case kRemoveDentry:
		dm := n.dentryTree[r.Parent]
		t, ok := dm[r.Name]
		if !ok {
			return resp{Code: errNotExist}
		}
		pd := n.localParent(p, r.Parent)
		n.check(fs.Unlink(p, pd, dentName(r.Name, t)), "remove dentry")
		delete(dm, r.Name)
		n.nden--
		return resp{Target: t}

	case kIncLink:
		im := n.inodeTree[r.Ino]
		if im == nil {
			return resp{Code: errNotExist}
		}
		if r.MustFile && im.dir {
			return resp{Code: errIsDir}
		}
		im.nlink++
		n.check(fs.Link(p, n.localIno[r.Ino], n.iDir, linkName(r.Ino, im.nlink)), "bump link")
		return resp{}

	case kDecLink:
		im := n.inodeTree[r.Ino]
		if im == nil {
			return resp{Code: errNotExist}
		}
		if r.MustFile && im.dir {
			return resp{Code: errIsDir}
		}
		if im.nlink > 1 {
			n.check(fs.Unlink(p, n.iDir, linkName(r.Ino, im.nlink)), "drop link")
			im.nlink--
			return resp{}
		}
		// Last reference: the dentry removals already committed, so the
		// backing file may be reclaimed (reset-before-reuse preserved by
		// the local scheme's remove ordering).
		n.check(fs.Unlink(p, n.iDir, inoName(r.Ino)), "free inode")
		delete(n.inodeTree, r.Ino)
		delete(n.localIno, r.Ino)
		return resp{}

	case kMigrate:
		// First batch of an incoming split: adopt the migrated range
		// (spares own the empty range until here). Splitting is deferred
		// until the final batch has landed, so the range never narrows
		// while it is still filling.
		if n.start == n.end {
			n.start, n.end = r.Ino, r.Target
		}
		n.receiving = !r.Final
		for _, e := range r.Ents {
			n.install(p, e)
		}
		return resp{}
	}
	panic(fmt.Sprintf("dmeta: node %d: unknown request kind %d", n.id, r.Kind))
}

// check panics on unexpected local-stack failures (logical errors are
// filtered before the local operation is attempted).
func (n *Node) check(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("dmeta: node %d: %s: %v", n.id, what, err))
	}
}

// localParent returns (creating on demand) the local directory backing
// parent's dentries.
func (n *Node) localParent(p *sim.Proc, parent uint64) ffs.Ino {
	if d, ok := n.localDir[parent]; ok {
		return d
	}
	d, err := n.St.FS.Mkdir(p, n.dDir, parentDirName(parent))
	if errors.Is(err, ffs.ErrExist) {
		// Left over from before this key range migrated away and back is
		// impossible; but a crash-recovered image may resurrect one.
		d, err = n.St.FS.Lookup(p, n.dDir, parentDirName(parent))
	}
	n.check(err, "local parent dir")
	n.localDir[parent] = d
	return d
}

// install replays one migrated entry on the destination (durably: the
// local writes go through this node's scheme like any other update).
func (n *Node) install(p *sim.Proc, e migEnt) {
	fs := n.St.FS
	if e.HasInode {
		lino, err := fs.Create(p, n.iDir, inoName(e.Key))
		n.check(err, "migrate inode")
		for k := 2; k <= e.Nlink; k++ {
			n.check(fs.Link(p, lino, n.iDir, linkName(e.Key, k)), "migrate link")
		}
		n.inodeTree[e.Key] = &inodeMeta{nlink: e.Nlink, dir: e.Dir}
		n.localIno[e.Key] = lino
	}
	if len(e.Dentries) > 0 {
		pd := n.localParent(p, e.Key)
		dm := n.dentryTree[e.Key]
		if dm == nil {
			dm = make(map[string]uint64)
			n.dentryTree[e.Key] = dm
		}
		for _, d := range e.Dentries {
			_, err := fs.Create(p, pd, dentName(d.Name, d.Target))
			n.check(err, "migrate dentry")
			dm[d.Name] = d.Target
			n.nden++
		}
	}
}

// maybeSplit runs the split policy: when the tree size or inbox depth
// crosses its threshold, claim a spare from the router and migrate the
// upper part of the owned key range to it. The whole migration runs on
// the server proc — incoming requests queue behind it and any that
// targeted moved keys get forwarded once the local range narrows.
func (n *Node) maybeSplit(p *sim.Proc) {
	c := n.c
	if n.splitting || n.receiving || n.noSpares {
		return
	}
	sizeTrip := c.cfg.SplitEntries > 0 && n.entries() > c.cfg.SplitEntries
	queueTrip := c.cfg.SplitQueue > 0 && n.ep.Queued() > c.cfg.SplitQueue
	if !sizeTrip && !queueTrip {
		return
	}

	// Collect the owned keys in order (map iteration never escapes
	// unsorted — determinism).
	keySet := make(map[uint64]struct{}, len(n.inodeTree)+len(n.dentryTree))
	for k := range n.inodeTree {
		keySet[k] = struct{}{}
	}
	for k, dm := range n.dentryTree {
		if len(dm) > 0 {
			keySet[k] = struct{}{}
		}
	}
	keys := make([]uint64, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	if len(keys) < 2 {
		return
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Claim a spare. The server proc blocks on the round trip, so the
	// trees cannot change under the collected key set.
	n.splitting = true
	defer func() { n.splitting = false }()
	rc := n.ep.Call(p, 0, reqSize(req{Kind: kClaimSpare}), req{Kind: kClaimSpare})
	dst := int(rc.Payload.(resp).Target)
	if dst == 0 {
		n.noSpares = true
		return
	}

	// Split point: the median key, nudged within the middle third by this
	// node's decision stream (keyed seed+nodeID, so the choice is a pure
	// function of the options).
	mid := len(keys) / 2
	if span := len(keys) / 6; span > 0 {
		mid += int(splitmix64(&n.rng)%uint64(2*span+1)) - span
	}
	if mid < 1 {
		mid = 1
	}
	if mid > len(keys)-1 {
		mid = len(keys) - 1
	}
	m := keys[mid]
	oldEnd := n.end

	// Copy phase: stream [m, end) to the spare in seeded batches.
	ents := make([]migEnt, 0, len(keys)-mid)
	for _, k := range keys[mid:] {
		e := migEnt{Key: k}
		if im := n.inodeTree[k]; im != nil {
			e.HasInode, e.Nlink, e.Dir = true, im.nlink, im.dir
		}
		if dm := n.dentryTree[k]; len(dm) > 0 {
			names := make([]string, 0, len(dm))
			for name := range dm {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				e.Dentries = append(e.Dentries, migDent{Name: name, Target: dm[name]})
			}
		}
		ents = append(ents, e)
	}
	for i := 0; i < len(ents); {
		bs := 16 + int(splitmix64(&n.rng)%16)
		if i+bs > len(ents) {
			bs = len(ents) - i
		}
		batch := ents[i : i+bs]
		r := req{Kind: kMigrate, Ino: m, Target: oldEnd, Final: i+bs == len(ents), Ents: batch}
		n.ep.Call(p, dst, reqSize(r), r)
		i += bs
	}

	// Delete phase — only after the copy is durable on the wire protocol
	// level (the destination replied): dentry files first, then extra
	// links, then the inode files themselves.
	fs := n.St.FS
	for _, e := range ents {
		if len(e.Dentries) > 0 {
			pd := n.localParent(p, e.Key)
			for _, d := range e.Dentries {
				n.check(fs.Unlink(p, pd, dentName(d.Name, d.Target)), "evacuate dentry")
			}
			delete(n.dentryTree, e.Key)
			delete(n.localDir, e.Key)
			n.nden -= len(e.Dentries)
		}
		if e.HasInode {
			for k := e.Nlink; k >= 2; k-- {
				n.check(fs.Unlink(p, n.iDir, linkName(e.Key, k)), "evacuate link")
			}
			n.check(fs.Unlink(p, n.iDir, inoName(e.Key)), "evacuate inode")
			delete(n.inodeTree, e.Key)
			delete(n.localIno, e.Key)
		}
	}

	// Narrow the owned range — forwarding starts now — and announce the
	// split to the router, which republishes the partition map.
	n.end = m
	n.fwd = append(n.fwd, fwdRange{start: m, end: oldEnd, dst: dst})
	done := req{Kind: kSplitDone, Ino: m, Target: uint64(dst), Moved: len(ents)}
	n.ep.Send(0, reqSize(done), done)
}
