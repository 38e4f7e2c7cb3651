package ordering_test

import (
	"testing"

	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/ordering"
	"metaupdate/internal/sim"
)

// seqProbe mounts the skeleton over recording writes. The file system's own
// calls arrive through the probe, which is how the test sees the deferred
// half of a removal: ApplyFree ends in one MetaUpdate of the fragment map,
// FinishRemove of a still-linked file in one MetaUpdate of its inode block.
type seqProbe struct {
	*ordering.Sequenced
	ordered, last []*cache.Buf
	meta          []int64
}

func (o *seqProbe) MetaUpdate(p *sim.Proc, b *cache.Buf) {
	o.meta = append(o.meta, b.Frag)
	o.Sequenced.MetaUpdate(p, b)
}

// TestSequencedRuleTable is the rule table No Order, Conventional, Scheduler
// Flag, NVRAM and Journaling share: per hook, the buffer that gets the
// ordered write, the last write of the series or a delayed write, and
// whether FinishRemove / ApplyFree run (exactly once). The recording writes
// do not touch the buffer, so a dirty buffer afterwards is one the skeleton
// itself delayed.
func TestSequencedRuleTable(t *testing.T) {
	type env struct {
		p      *sim.Proc
		s      *ordering.Sequenced
		fs     *ffs.FS
		a, b   *cache.Buf
		linked ffs.Ino // a file with two links
	}
	type want struct {
		ordered, last, delayed  string // "a", "b" or "" for none
		finishRemove, applyFree int
	}
	cases := []struct {
		name      string
		allocInit bool
		call      func(e env)
		want      want
	}{
		{"AllocInit/dir", false, func(e env) {
			e.s.AllocInit(e.p, &ffs.AllocRec{FS: e.fs, NewBuf: e.a, OwnerBuf: e.b, IsDir: true})
		}, want{ordered: "a"}},
		{"AllocInit/indirect", false, func(e env) {
			e.s.AllocInit(e.p, &ffs.AllocRec{FS: e.fs, NewBuf: e.a, OwnerBuf: e.b, IsIndir: true})
		}, want{ordered: "a"}},
		{"AllocInit/data", false, func(e env) {
			e.s.AllocInit(e.p, &ffs.AllocRec{FS: e.fs, NewBuf: e.a, OwnerBuf: e.b})
		}, want{delayed: "a"}},
		{"AllocInit/data+allocinit", true, func(e env) {
			e.s.AllocInit(e.p, &ffs.AllocRec{FS: e.fs, NewBuf: e.a, OwnerBuf: e.b})
		}, want{ordered: "a"}},
		{"AllocPtr", false, func(e env) {
			e.s.AllocPtr(e.p, &ffs.AllocRec{FS: e.fs, NewBuf: e.a, OwnerBuf: e.b})
		}, want{last: "b"}},
		{"AllocPtr/fragment-move", false, func(e env) {
			e.s.AllocPtr(e.p, &ffs.AllocRec{FS: e.fs, NewBuf: e.a, OwnerBuf: e.b,
				MovedFrom: &ffs.FragRun{Start: int32(e.a.Frag) + 64, N: 2}})
		}, want{ordered: "b", applyFree: 1}},
		{"AddInode", false, func(e env) {
			e.s.AddInode(e.p, &ffs.LinkRec{FS: e.fs, InoBuf: e.a, DirBuf: e.b})
		}, want{ordered: "a"}},
		{"AddEntry", false, func(e env) {
			e.s.AddEntry(e.p, &ffs.LinkRec{FS: e.fs, InoBuf: e.a, DirBuf: e.b})
		}, want{last: "b"}},
		{"RemoveEntry", false, func(e env) {
			e.s.RemoveEntry(e.p, ffs.RemRec{FS: e.fs, Ino: e.linked, DirIno: ffs.RootIno, DirBuf: e.b})
		}, want{ordered: "b", finishRemove: 1}},
		{"FreeBlocks", false, func(e env) {
			e.s.FreeBlocks(e.p, ffs.FreeRec{FS: e.fs, OwnerBuf: e.a})
		}, want{ordered: "a", applyFree: 1}},
		{"MetaUpdate", false, func(e env) {
			e.s.MetaUpdate(e.p, e.a)
		}, want{delayed: "a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := &seqProbe{}
			seq := ordering.NewSequenced(
				func(p *sim.Proc, b *cache.Buf) { pr.ordered = append(pr.ordered, b) },
				func(p *sim.Proc, b *cache.Buf) { pr.last = append(pr.last, b) })
			pr.Sequenced = &seq
			r := newRig(t, pr, dev.Config{Mode: dev.ModeIgnore}, cache.Config{}, ffs.Config{AllocInit: tc.allocInit})
			sb := r.fs.Superblock()
			r.run(t, func(p *sim.Proc) {
				// A file with two links: FinishRemove takes one away and
				// frees nothing.
				linked, err := r.fs.Create(p, ffs.RootIno, "f")
				if err == nil {
					err = r.fs.Link(p, linked, ffs.RootIno, "g")
				}
				if err != nil {
					t.Fatal(err)
				}
				r.fs.Sync(p)
				e := env{p: p, s: &seq, fs: r.fs, linked: linked,
					a: r.c.Getblk(p, int64(sb.DataStart)+8000, 1),
					b: r.c.Getblk(p, int64(sb.DataStart)+8008, 1),
				}
				if e.a.Dirty || e.b.Dirty {
					t.Fatal("scratch buffers start dirty")
				}
				pr.ordered, pr.last, pr.meta = nil, nil, nil

				tc.call(e)

				named := map[string]*cache.Buf{"a": e.a, "b": e.b}
				check := func(kind string, got []*cache.Buf, want string) {
					switch {
					case want == "" && len(got) != 0:
						t.Errorf("%d %s writes, want none", len(got), kind)
					case want != "" && (len(got) != 1 || got[0] != named[want]):
						t.Errorf("%s writes %v, want exactly buffer %s", kind, got, want)
					}
				}
				check("ordered", pr.ordered, tc.want.ordered)
				check("last", pr.last, tc.want.last)
				for name, b := range named {
					if b.Dirty != (name == tc.want.delayed) {
						t.Errorf("buffer %s delayed = %v, want %v", name, b.Dirty, name == tc.want.delayed)
					}
				}
				iblk, _ := sb.InodeFrag(linked)
				var finishRemove, applyFree int
				for _, frag := range pr.meta {
					switch frag {
					case int64(iblk):
						finishRemove++
					case int64(sb.FBmapStart):
						applyFree++
					}
				}
				if finishRemove != tc.want.finishRemove || applyFree != tc.want.applyFree {
					t.Errorf("FinishRemove ran %d times, ApplyFree %d; want %d and %d",
						finishRemove, applyFree, tc.want.finishRemove, tc.want.applyFree)
				}
				ip, err := r.fs.Stat(p, linked)
				if err != nil || int(ip.Nlink) != 2-tc.want.finishRemove {
					t.Errorf("link count %d (err %v), want %d", ip.Nlink, err, 2-tc.want.finishRemove)
				}
			})
		})
	}
}
