// Tests here build clusters through fsim (external test package — fsim
// imports dmeta, so the reverse import is only legal from _test), drive
// the router, and check the cross-partition invariants against the
// per-node durable images with fsck.
package dmeta_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/dmeta"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

func distOpt(scheme fsim.Scheme, nodes int, seed int64) fsim.DistOptions {
	return fsim.DistOptions{
		Base:  fsim.Options{Scheme: scheme},
		Nodes: nodes,
		Seed:  seed,
	}
}

func mustDist(t *testing.T, opt fsim.DistOptions) *fsim.DistSystem {
	t.Helper()
	s, err := fsim.NewDist(opt)
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	return s
}

// union is the logical state recovered from every node's durable image:
// which node holds each inode id (with its recovered link count), and
// every dentry triple.
type union struct {
	inoOwner map[uint64][]int // logical ino -> node ids holding its backing file
	inoLinks map[uint64]int   // logical ino -> 1 + extra-link files
	dentries []dentry
}

type dentry struct {
	parent, target uint64
	name           string
	node           int
}

// parseImages recovers the logical metadata state from per-node images
// via fsck.Tree — the same oracle the single-machine crash tests use.
func parseImages(t *testing.T, imgs [][]byte) *union {
	t.Helper()
	u := &union{inoOwner: make(map[uint64][]int), inoLinks: make(map[uint64]int)}
	for i, img := range imgs {
		node := i + 1
		tree, err := fsck.Tree(fsck.Bytes(img))
		if err != nil {
			t.Fatalf("node %d: fsck.Tree: %v", node, err)
		}
		for path, ent := range tree {
			if ent.Dir {
				continue
			}
			switch {
			case strings.HasPrefix(path, "/i/x"):
				rest := strings.TrimPrefix(path, "/i/x")
				if base, _, isLink := strings.Cut(rest, ".l"); isLink {
					ino := mustHex(t, path, base)
					u.inoLinks[ino]++
					continue
				}
				ino := mustHex(t, path, rest)
				u.inoOwner[ino] = append(u.inoOwner[ino], node)
				u.inoLinks[ino]++
			case strings.HasPrefix(path, "/d/p"):
				rest := strings.TrimPrefix(path, "/d/p")
				slash := strings.IndexByte(rest, '/')
				if slash < 0 {
					t.Fatalf("node %d: malformed dentry path %q", node, path)
				}
				parent := mustHex(t, path, rest[:slash])
				name, tgt, ok := strings.Cut(rest[slash+1:], "=")
				if !ok {
					t.Fatalf("node %d: dentry file without target: %q", node, path)
				}
				u.dentries = append(u.dentries, dentry{
					parent: parent, target: mustHex(t, path, tgt), name: name, node: node,
				})
			default:
				t.Fatalf("node %d: unexpected file %q in a metadata image", node, path)
			}
		}
	}
	sort.Slice(u.dentries, func(i, j int) bool {
		a, b := u.dentries[i], u.dentries[j]
		if a.parent != b.parent {
			return a.parent < b.parent
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.node < b.node
	})
	return u
}

func mustHex(t *testing.T, path, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatalf("path %q: bad hex %q", path, s)
	}
	return v
}

// checkUnion asserts the cross-partition invariants on a quiescent
// cluster's union state: every inode singly owned by its range's owner,
// no orphaned dentries, partition ranges disjoint and covering.
func checkUnion(t *testing.T, s *fsim.DistSystem, u *union) {
	t.Helper()
	parts := s.Cluster.Parts()
	for i, pt := range parts {
		if pt.Start >= pt.End {
			t.Errorf("partition %d empty: %+v", i, pt)
		}
		if i > 0 && parts[i-1].End != pt.Start {
			t.Errorf("partition map has a gap/overlap at %d: %+v then %+v", i, parts[i-1], pt)
		}
	}
	owner := func(key uint64) int {
		for _, pt := range parts {
			if key >= pt.Start && key < pt.End {
				return pt.Node
			}
		}
		t.Fatalf("key %d outside partition map", key)
		return 0
	}
	for ino, nodes := range u.inoOwner {
		if len(nodes) != 1 {
			t.Errorf("inode %d owned by %d nodes %v — double-owned range", ino, len(nodes), nodes)
			continue
		}
		if want := owner(ino); nodes[0] != want {
			t.Errorf("inode %d durable on node %d, partition map says %d", ino, nodes[0], want)
		}
	}
	refs := make(map[uint64]int)
	for _, d := range u.dentries {
		if len(u.inoOwner[d.target]) == 0 {
			t.Errorf("orphaned dentry: parent %d name %q -> missing inode %d", d.parent, d.name, d.target)
		}
		if len(u.inoOwner[d.parent]) == 0 {
			t.Errorf("dentry under missing parent %d (name %q)", d.parent, d.name)
		}
		if want := owner(d.parent); d.node != want {
			t.Errorf("dentry (%d, %q) durable on node %d, owner is %d", d.parent, d.name, d.node, want)
		}
		refs[d.target]++
	}
	// Recovered link counts match the dentry references (root has none).
	for ino, links := range u.inoLinks {
		want := refs[ino]
		if ino == dmeta.RootIno {
			want = 1
		}
		if links != want {
			t.Errorf("inode %d: %d durable links, %d dentry references", ino, links, want)
		}
	}
}

func TestRouterBasicOps(t *testing.T) {
	s := mustDist(t, distOpt(fsim.SoftUpdates, 2, 7))
	defer s.Shutdown()
	c := s.Cluster
	s.Run(func(p *fsim.Proc) {
		d1, err := c.Mkdir(p, dmeta.RootIno, "a")
		if err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		f, err := c.Create(p, d1, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if got, err := c.Lookup(p, d1, "f"); err != nil || got != f {
			t.Fatalf("lookup = %d, %v; want %d", got, err, f)
		}
		if _, err := c.Create(p, d1, "f"); err != fsim.ErrExist {
			t.Fatalf("duplicate create = %v, want ErrExist", err)
		}
		if err := c.Link(p, f, dmeta.RootIno, "hard"); err != nil {
			t.Fatalf("link: %v", err)
		}
		d2, err := c.Mkdir(p, dmeta.RootIno, "b")
		if err != nil {
			t.Fatalf("mkdir b: %v", err)
		}
		if err := c.Rename(p, d1, "f", d2, "g"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := c.Lookup(p, d1, "f"); err != fsim.ErrNotExist {
			t.Fatalf("stale source lookup = %v", err)
		}
		if got, _ := c.Lookup(p, d2, "g"); got != f {
			t.Fatalf("dest lookup = %d, want %d", got, f)
		}
		if err := c.Unlink(p, d2, "g"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		// The hard link keeps the inode alive.
		if got, _ := c.Lookup(p, dmeta.RootIno, "hard"); got != f {
			t.Fatalf("hard-link lookup = %d, want %d", got, f)
		}
		if err := c.Unlink(p, dmeta.RootIno, "hard"); err != nil {
			t.Fatalf("final unlink: %v", err)
		}
		if err := c.Unlink(p, dmeta.RootIno, "a"); err != fsim.ErrIsDir {
			t.Fatalf("unlink dir = %v, want ErrIsDir", err)
		}
	})
	s.SyncAll()
	u := parseImages(t, s.Cluster.Images())
	checkUnion(t, s, u)
	if c.Ops == 0 || c.Errs == 0 {
		t.Fatalf("counters: ops %d errs %d", c.Ops, c.Errs)
	}
}

// TestRenameOntoItself is the cluster twin of fsim's: renaming a name onto
// itself changes nothing. The add would replace the dentry with itself and
// the commit would then remove it, orphaning the inode.
func TestRenameOntoItself(t *testing.T) {
	s := mustDist(t, distOpt(fsim.Conventional, 2, 7))
	defer s.Shutdown()
	c := s.Cluster
	s.Run(func(p *fsim.Proc) {
		f, err := c.Create(p, dmeta.RootIno, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.Rename(p, dmeta.RootIno, "f", dmeta.RootIno, "f"); err != nil {
			t.Fatalf("rename onto itself: %v", err)
		}
		if err := c.Rename(p, dmeta.RootIno, "g", dmeta.RootIno, "g"); err != fsim.ErrNotExist {
			t.Fatalf("rename of a missing name onto itself = %v, want ErrNotExist", err)
		}
		if got, err := c.Lookup(p, dmeta.RootIno, "f"); err != nil || got != f {
			t.Fatalf("lookup after the rename = %d, %v; want %d", got, err, f)
		}
	})
	s.SyncAll()
	checkUnion(t, s, parseImages(t, s.Cluster.Images()))
}

// TestLinkOntoExistingNameAborts: a Link onto a name that exists, with the
// target's owner the parent's and with the two on different nodes, fails
// with ErrExist after its prepare, and gives the link-count bump back: the
// durable counts still equal the dentry references.
func TestLinkOntoExistingNameAborts(t *testing.T) {
	s := mustDist(t, distOpt(fsim.Conventional, 2, 7))
	defer s.Shutdown()
	c := s.Cluster
	owner := func(key uint64) int {
		for _, pt := range c.Parts() {
			if key >= pt.Start && key < pt.End {
				return pt.Node
			}
		}
		t.Fatalf("key %d outside the partition map", key)
		return 0
	}
	s.Run(func(p *fsim.Proc) {
		taken, err := c.Create(p, dmeta.RootIno, "taken")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		targets := make(map[bool]uint64) // by whether the target's owner is the root's
		for i := 0; len(targets) < 2; i++ {
			if i == 64 {
				t.Fatalf("64 creates found targets on one side only: %v", targets)
			}
			f, err := c.Create(p, dmeta.RootIno, fmt.Sprintf("f%d", i))
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			if local := owner(f) == owner(dmeta.RootIno); targets[local] == 0 {
				targets[local] = f
			}
		}
		for _, local := range []bool{true, false} {
			cross := c.CrossOps
			if err := c.Link(p, targets[local], dmeta.RootIno, "taken"); err != fsim.ErrExist {
				t.Errorf("link onto an existing name (same owner %v) = %v, want ErrExist", local, err)
			}
			if local != (c.CrossOps == cross) {
				t.Errorf("link (same owner %v) counted %d cross-partition ops", local, c.CrossOps-cross)
			}
			if got, err := c.Lookup(p, dmeta.RootIno, "taken"); err != nil || got != taken {
				t.Errorf("after the failed link the name resolves to %d, %v; want %d", got, err, taken)
			}
		}
	})
	s.SyncAll()
	checkUnion(t, s, parseImages(t, s.Cluster.Images()))
}

// TestCrossPartitionConsistency is the satellite check: a multi-node run
// with dynamic splits, then fsck over the union of per-node images.
func TestCrossPartitionConsistency(t *testing.T) {
	for _, scheme := range []fsim.Scheme{fsim.Conventional, fsim.SoftUpdates} {
		scheme := scheme
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			opt := distOpt(scheme, 3, 11)
			opt.SplitEntries = 24
			s := mustDist(t, opt)
			defer s.Shutdown()
			res := s.Cluster.Load(dmeta.LoadSpec{Clients: 4, Ops: 40, Seed: 11})
			if res.Ops == 0 || res.Wall <= 0 {
				t.Fatalf("load did not run: %+v", res)
			}
			s.SyncAll()
			u := parseImages(t, s.Cluster.Images())
			checkUnion(t, s, u)
			if s.Cluster.Splits == 0 {
				t.Fatalf("expected at least one dynamic split (entries threshold %d)", opt.SplitEntries)
			}
			if s.Cluster.ActiveNodes() <= opt.Nodes {
				t.Fatalf("split did not activate a spare: %d nodes", s.Cluster.ActiveNodes())
			}
		})
	}
}

// TestCrashMidRenameConventional is the differential crash case: power
// fails after a cross-partition rename's prepare phase is durable but
// before any commit is sent. Conventional delays the final dentry write
// of each sequence (the paper's "last write is asynchronous"), so the
// prepare is made durable with an explicit sync while the renamer is
// parked between phases. The surviving union must equal the completed
// rename's union plus exactly the two prepare leftovers: the
// still-present source dentry and the transient link-count file.
func TestCrashMidRenameConventional(t *testing.T) {
	setup := func(hook bool) (*fsim.DistSystem, []string, uint64) {
		opt := distOpt(fsim.Conventional, 2, 3)
		s := mustDist(t, opt)
		c := s.Cluster
		var f, dst uint64
		s.Run(func(p *fsim.Proc) {
			var err error
			// The root (and thus the source dentry) lives on node 1; put
			// the destination directory on node 2 so the rename is
			// genuinely cross-partition.
			parts := c.Parts()
			for i := 0; ; i++ {
				dst, err = c.Mkdir(p, dmeta.RootIno, fmt.Sprintf("d%d", i))
				if err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if dst >= parts[1].Start {
					break
				}
			}
			if f, err = c.Create(p, dmeta.RootIno, "f"); err != nil {
				t.Fatalf("create: %v", err)
			}
		})
		var imgs [][]byte
		if hook {
			prepared := false
			park := sim.NewCompletion()
			c.TestHookPrepared = func(p *fsim.Proc) {
				prepared = true
				park.Wait(p) // never fires: commit messages never go out
			}
			s.Eng.Spawn("renamer", func(p *fsim.Proc) {
				c.Rename(p, dmeta.RootIno, "f", dst, "g")
			})
			s.Eng.RunWhile(func() bool { return !prepared })
			s.SyncAll() // prepare durable; the parked renamer sends no commit
			imgs = s.Crash(s.Eng.Now())
		} else {
			s.Run(func(p *fsim.Proc) {
				if err := c.Rename(p, dmeta.RootIno, "f", dst, "g"); err != nil {
					t.Fatalf("rename: %v", err)
				}
			})
			s.SyncAll()
			imgs = s.Cluster.Images()
		}
		var paths []string
		for i, img := range imgs {
			tree, err := fsck.Tree(fsck.Bytes(img))
			if err != nil {
				t.Fatalf("node %d: fsck: %v", i+1, err)
			}
			for p, ent := range tree {
				if !ent.Dir {
					paths = append(paths, fmt.Sprintf("node%d:%s", i+1, p))
				}
			}
		}
		sort.Strings(paths)
		return s, paths, f
	}

	committed, donePaths, _ := setup(false)
	defer committed.Shutdown()
	crashed, crashPaths, f := setup(true)
	_ = crashed // crashed mid-run: engine frozen, nothing to shut down

	extra := diffPaths(crashPaths, donePaths)
	missing := diffPaths(donePaths, crashPaths)
	if len(missing) != 0 {
		t.Fatalf("crash image lost committed state: %v", missing)
	}
	want := []string{
		fmt.Sprintf("node1:/d/p1/f=%x", f), // source dentry: commit never ran
		fmt.Sprintf("node1:/i/x%x.l2", f),  // transient count bump: prepare durable
	}
	sort.Strings(want)
	if !equalStrings(extra, want) {
		t.Fatalf("crash leftovers = %v, want exactly %v", extra, want)
	}
}

func diffPaths(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoadDeterminism: identical options produce identical virtual
// timelines, counters, and durable unions — the property the memoized
// cells and the CI dist diff rely on.
func TestLoadDeterminism(t *testing.T) {
	run := func() (dmeta.LoadResult, string, sim.Time, int64) {
		opt := distOpt(fsim.SchedulerChains, 2, 9)
		opt.SplitEntries = 40
		s := mustDist(t, opt)
		defer s.Shutdown()
		res := s.Cluster.Load(dmeta.LoadSpec{Clients: 3, Ops: 25, Seed: 9})
		s.SyncAll()
		u := parseImages(t, s.Cluster.Images())
		var sb strings.Builder
		for _, d := range u.dentries {
			fmt.Fprintf(&sb, "%d/%s=%d@%d\n", d.parent, d.name, d.target, d.node)
		}
		fmt.Fprintf(&sb, "splits%d fwd%d cross%d mig%d\n",
			s.Cluster.Splits, s.Cluster.Forwards(), s.Cluster.CrossOps, s.Cluster.Migrated)
		return res, sb.String(), s.Eng.Now(), s.Net.Totals().Sent
	}
	r1, u1, t1, m1 := run()
	r2, u2, t2, m2 := run()
	if r1 != r2 || u1 != u2 || t1 != t2 || m1 != m2 {
		t.Fatalf("nondeterministic dist run:\n%+v vs %+v\nclock %v vs %v, msgs %d vs %d\nunion A:\n%s\nunion B:\n%s",
			r1, r2, t1, t2, m1, m2, u1, u2)
	}
}

// TestShutdownClosesEveryCache: a cluster's shutdown closes every node's
// cache, spares included, so no node keeps block storage mapped (it goes
// back to the process-wide pool), while the counters a benchmark reads
// afterwards keep their values.
func TestShutdownClosesEveryCache(t *testing.T) {
	opt := distOpt(fsim.SoftUpdates, 3, 5)
	opt.SplitEntries = 24
	s := mustDist(t, opt)
	s.Cluster.Load(dmeta.LoadSpec{Clients: 4, Ops: 40, Seed: 5})
	held, misses := 0, make([]int64, s.Cluster.NodeCount())
	for id := 1; id <= s.Cluster.NodeCount(); id++ {
		c := s.Cluster.Node(id).St.Cache
		held += c.Bytes()
		misses[id-1] = c.Misses
	}
	if held == 0 {
		t.Fatal("setup: no node maps any buffer before the shutdown")
	}
	s.Shutdown()
	for id := 1; id <= s.Cluster.NodeCount(); id++ {
		c := s.Cluster.Node(id).St.Cache
		if c.Bytes() != 0 || c.DirtyCount() != 0 {
			t.Errorf("node %d: %d bytes mapped, %d dirty buffers after Shutdown, want none", id, c.Bytes(), c.DirtyCount())
		}
		if c.Misses != misses[id-1] {
			t.Errorf("node %d: %d misses after Shutdown, %d before", id, c.Misses, misses[id-1])
		}
	}
}
