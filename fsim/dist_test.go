package fsim

import (
	"testing"

	"metaupdate/internal/dmeta"
	"metaupdate/internal/fsck"
	"metaupdate/internal/simnet"
)

// TestDistSurface exercises the public distributed-cluster surface end to
// end on a 2-node SoftUpdates cluster: defaults, the Run driver, router
// ops, SyncAll, Crash images (post-sync, so fully durable), Shutdown.
func TestDistSurface(t *testing.T) {
	s, err := NewDist(DistOptions{Base: Options{Scheme: SoftUpdates}, Nodes: 2, Seed: 21})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	if got := s.Opt.MaxNodes; got != 2 {
		t.Errorf("MaxNodes default = %d, want Nodes", got)
	}
	if pp := s.Net.Params(); pp != simnet.DefaultParams() {
		t.Errorf("network params %v, want the default cost model %v", pp, simnet.DefaultParams())
	}
	var ino uint64
	wall := s.Run(func(p *Proc) {
		var err error
		if ino, err = s.Cluster.Create(p, dmeta.RootIno, "a"); err != nil {
			t.Fatalf("create: %v", err)
		}
		if got, err := s.Cluster.Lookup(p, dmeta.RootIno, "a"); err != nil || got != ino {
			t.Fatalf("lookup = %d, %v; want %d", got, err, ino)
		}
	})
	if wall <= 0 {
		t.Errorf("Run elapsed %v, want > 0", wall)
	}
	s.SyncAll()
	imgs := s.Crash(s.Eng.Now())
	if len(imgs) != 2 {
		t.Fatalf("Crash returned %d images, want 2", len(imgs))
	}
	tree, err := fsck.Tree(fsck.Bytes(imgs[0]))
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if _, ok := tree["/i/x1"]; !ok {
		t.Errorf("synced crash image missing the root inode file: %v", tree)
	}
	s.Shutdown()
}

// TestDistSplitDefaults pins the MaxNodes headroom granted when a split
// trigger is armed.
func TestDistSplitDefaults(t *testing.T) {
	opt := DistOptions{Base: Options{Scheme: NoOrder}, Nodes: 3, SplitEntries: 10}
	s, err := NewDist(opt)
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	defer s.Shutdown()
	if got := s.Opt.MaxNodes; got != 5 {
		t.Errorf("MaxNodes = %d, want Nodes+2 when splitting is armed", got)
	}
	if got := s.Opt.Base.DiskBytes; got != 32<<20 {
		t.Errorf("dist DiskBytes default = %d, want 32 MB", got)
	}
}

// TestDistCrashPastPanics pins the Crash precondition.
func TestDistCrashPastPanics(t *testing.T) {
	s, err := NewDist(DistOptions{Base: Options{Scheme: NoOrder}, Seed: 1})
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	defer s.Shutdown()
	s.Run(func(p *Proc) {
		if _, err := s.Cluster.Create(p, dmeta.RootIno, "x"); err != nil {
			t.Fatalf("create: %v", err)
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("Crash in the past did not panic")
		}
	}()
	s.Crash(s.Eng.Now() - 1)
}
