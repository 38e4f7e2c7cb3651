package main

import (
	"fmt"
	"runtime"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/arrival"
	"metaupdate/internal/cache"
	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
	"metaupdate/internal/jlog"
	"metaupdate/internal/sim"
	"metaupdate/internal/simnet"
	"metaupdate/internal/workload"
)

// microbench is a fixed-iteration loop around one layer's public
// functions, on a bare engine or stack built here. run performs n calls
// and returns the host time they took (set-up excluded).
type microbench struct {
	name string
	n    int
	run  func(n int) time.Duration
}

var microbenchmarks = []microbench{
	{"sim.timer_ns", 400000, microTimer},
	{"sim.sleep_ns", 100000, microSleep},
	{"sim.wake_ns", 100000, microWake},
	{"disk.plan_ns", 400000, microDiskPlan},
	{"dev.submit_ns", 40000, func(n int) time.Duration { return microSubmit(n, dev.ModeIgnore) }},
	{"dev.submit_chain_ns", 40000, func(n int) time.Duration { return microSubmit(n, dev.ModeChains) }},
	{"cache.bread_hit_ns", 400000, microBreadHit},
	{"cache.evict_ns", 2000, microEvict},
	{"ffs.create_ns", 4000, func(n int) time.Duration { return microCreateUnlink(n, false) }},
	{"ffs.unlink_ns", 4000, func(n int) time.Duration { return microCreateUnlink(n, true) }},
	{"jlog.encode_ns", 200000, microJlog},
	{"simnet.rpc_ns", 40000, microRPC},
	{"arrival.next_ns", 1000000, microArrival},
}

// runMicro runs every microbenchmark once, under the watchdog, and returns
// host ns per call.
func runMicro(tr *tracer, sz sizes, smoke bool) map[string]float64 {
	out := map[string]float64{}
	for _, mb := range microbenchmarks {
		n := mb.n
		if smoke {
			n = n/200 + 8
		}
		runtime.GC()
		sp := tr.begin(nil, mb.name, "micro", nil)
		var d time.Duration
		if p := watched(mb.name, sz.deadline, func() { d = mb.run(n) }); p != nil {
			panic(p)
		}
		tr.end(sp, nil)
		out[mb.name] = float64(d.Nanoseconds()) / float64(n)
	}
	return out
}

// inProc runs fn as a simulated process to completion.
func inProc(eng *sim.Engine, fn func(p *sim.Proc)) {
	eng.Spawn("micro", fn)
	eng.Run()
}

// microTimer: schedule a future event, pop it, fire it.
func microTimer(n int) time.Duration {
	e := sim.NewEngine()
	fired := 0
	var fn func()
	fn = func() {
		if fired++; fired < n {
			e.At(e.Now()+1, fn)
		}
	}
	t0 := time.Now()
	e.At(1, fn)
	e.Run()
	return time.Since(t0)
}

// microSleep: park a process, schedule its wake, hand control back.
func microSleep(n int) time.Duration {
	e := sim.NewEngine()
	t0 := time.Now()
	inProc(e, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return time.Since(t0)
}

// microWake: a contended mutex handed between two processes.
func microWake(n int) time.Duration {
	e := sim.NewEngine()
	var mu sim.Mutex
	t0 := time.Now()
	for w := 0; w < 2; w++ {
		e.Spawn("worker", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				mu.Lock(p)
				p.Sleep(1)
				mu.Unlock(e)
			}
		})
	}
	e.Run()
	return time.Since(t0)
}

// lcg is the address stream of the disk and driver loops.
func lcg(x *uint64) uint64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return *x >> 33
}

// microDiskPlan: service-time planning of scattered 8 KB writes.
func microDiskPlan(n int) time.Duration {
	d := disk.New(disk.HPC2447(), 64<<20)
	span := uint64(d.Sectors() - 16)
	var x uint64 = 1
	var now sim.Time
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := d.Plan(now, disk.Write, int64(lcg(&x)%span), 16)
		now += a.Service
	}
	return time.Since(t0)
}

// microSubmit: submit 64 one-sector writes, then drain the driver; per
// request. In ModeChains every request names the previous one, the deep
// explicit-dependency queue the remove and cluster workloads build.
func microSubmit(n int, mode dev.OrderMode) time.Duration {
	const batch = 64
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	drv := dev.New(eng, dsk, dev.Config{Mode: mode})
	span := uint64(dsk.Sectors() - 1)
	data := make([]byte, disk.SectorSize)
	reqs := make([]*dev.Request, 0, batch)
	var x uint64 = 1
	t0 := time.Now()
	for done := 0; done < n; done += batch {
		var prev uint64
		for i := 0; i < batch; i++ {
			r := drv.AllocRequest()
			r.Op, r.LBN, r.Count, r.Data = disk.Write, int64(lcg(&x)%span), 1, data
			if mode == dev.ModeChains && prev != 0 {
				r.DependsOn = append(r.DependsOn[:0], prev)
			}
			prev = drv.Submit(r).ID
			reqs = append(reqs, r)
		}
		eng.Run()
		for _, r := range reqs {
			drv.Release(r)
		}
		reqs = reqs[:0]
	}
	return time.Since(t0)
}

func bareCache(maxBytes int) (*sim.Engine, *cache.Cache) {
	eng := sim.NewEngine()
	dsk := disk.New(disk.HPC2447(), 64<<20)
	drv := dev.New(eng, dsk, dev.Config{Mode: dev.ModeIgnore})
	return eng, cache.New(eng, drv, &sim.CPU{}, cache.Config{MaxBytes: maxBytes})
}

// microBreadHit: Bread of a resident block.
func microBreadHit(n int) time.Duration {
	eng, c := bareCache(1 << 20)
	var d time.Duration
	inProc(eng, func(p *sim.Proc) {
		c.Getblk(p, 64, 8)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := c.Bread(p, 64, 8); err != nil {
				panic(err)
			}
		}
		d = time.Since(t0)
	})
	return d
}

// microEvict: Getblk of a new block on a full 24 MB cache (the default
// machine's), so every call evicts.
func microEvict(n int) time.Duration {
	const maxBytes = 24 << 20
	eng, c := bareCache(maxBytes)
	var d time.Duration
	inProc(eng, func(p *sim.Proc) {
		frag := int64(8)
		for ; c.Bytes() < maxBytes; frag += 8 {
			c.Getblk(p, frag, 8)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.Getblk(p, frag, 8)
			frag += 8
		}
		d = time.Since(t0)
	})
	return d
}

// microCreateUnlink: n 1 KB creates under No Order on a warm cache, then
// n unlinks; one of the two loops is timed.
func microCreateUnlink(n int, unlink bool) time.Duration {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.NoOrder, DiskBytes: 64 << 20})
	if err != nil {
		panic(err)
	}
	defer sys.Shutdown()
	var dc, du time.Duration
	sys.Run(func(p *fsim.Proc) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, "m")
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		if err := workload.CreateFiles(p, sys.FS, dir, n, 1024); err != nil {
			panic(err)
		}
		dc = time.Since(t0)
		t0 = time.Now()
		if err := workload.RemoveFiles(p, sys.FS, dir, n); err != nil {
			panic(err)
		}
		du = time.Since(t0)
	})
	if unlink {
		return du
	}
	return dc
}

// microJlog: encode one journal transaction (begin, checksum over a
// two-fragment payload, commit, header).
func microJlog(n int) time.Duration {
	begin := make([]byte, jlog.FragSize)
	commit := make([]byte, jlog.FragSize)
	hdr := make([]byte, jlog.FragSize)
	payload := make([]byte, 2*jlog.FragSize)
	homes := []jlog.HomeRun{{Frag: 100, NFrags: 2}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		seq := uint64(i + 1)
		pf := jlog.EncodeBegin(begin, seq, homes)
		sum := jlog.Checksum(begin, payload[:int64(pf)*jlog.FragSize])
		jlog.EncodeCommit(commit, seq, pf, sum)
		jlog.EncodeHeader(hdr, jlog.Header{TailSeq: seq, TailOff: 9})
	}
	return time.Since(t0)
}

// microRPC: a 128-byte request and 64-byte reply between two endpoints.
func microRPC(n int) time.Duration {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	server := net.Endpoint(2)
	eng.Spawn("server", func(p *sim.Proc) {
		for {
			m, ok := server.Recv(p)
			if !ok {
				return
			}
			server.Reply(m, 64, nil)
		}
	})
	var d time.Duration
	eng.Spawn("client", func(p *sim.Proc) {
		client := net.Endpoint(1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			client.Call(p, 2, 128, nil)
		}
		d = time.Since(t0)
		server.Close()
	})
	eng.Run()
	return d
}

// microArrival: one Poisson inter-arrival draw.
func microArrival(n int) time.Duration {
	g := arrival.NewGen(arrival.Spec{Kind: arrival.Poisson, Seed: 1, PerSec: 100})
	var last sim.Time
	t0 := time.Now()
	for i := 0; i < n; i++ {
		last = g.Next()
	}
	d := time.Since(t0)
	if last <= 0 {
		panic(fmt.Sprintf("arrival: generator did not advance: %v", last))
	}
	return d
}
