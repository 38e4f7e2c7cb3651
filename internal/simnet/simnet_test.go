package simnet

import (
	"testing"

	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// TestLinkCostModel pins the timeline arithmetic: a message's delivery
// time is xmitStart + size/bandwidth + latency, and back-to-back sends
// on one link serialize on the transmission pipe.
func TestLinkCostModel(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Params{Latency: 1 * sim.Millisecond, BytesPerSec: 1_000_000})
	src := net.Endpoint(1)
	_ = net.Endpoint(2)

	// 1000 bytes at 1 MB/s = 1ms transmission.
	src.Send(2, 1000, "a")
	src.Send(2, 1000, "b")
	eng.Spawn("rcv", func(p *sim.Proc) {
		m1, _ := net.Endpoint(2).Recv(p)
		if m1.Payload != "a" {
			t.Errorf("first delivery = %v, want a (FIFO)", m1.Payload)
		}
		if m1.At != 2*sim.Millisecond {
			t.Errorf("first At = %v, want 2ms", m1.At)
		}
		if m1.Queued != 0 || m1.Wire != 2*sim.Millisecond {
			t.Errorf("first timing queued=%v wire=%v", m1.Queued, m1.Wire)
		}
		m2, _ := net.Endpoint(2).Recv(p)
		// Second send queued behind the first transmission: starts at
		// 1ms, delivers at 1+1+1 = 3ms.
		if m2.At != 3*sim.Millisecond || m2.Queued != 1*sim.Millisecond {
			t.Errorf("second At=%v queued=%v, want 3ms/1ms", m2.At, m2.Queued)
		}
		if m2.SentAt != 0 || m2.At-m2.SentAt != m2.Queued+m2.Wire {
			t.Errorf("timeline does not partition: %+v", m2)
		}
	})
	eng.Run()
}

// TestDistinctLinksDoNotContend checks the pipe is per directed link.
func TestDistinctLinksDoNotContend(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Params{Latency: 1 * sim.Millisecond, BytesPerSec: 1_000_000})
	net.Endpoint(1).Send(2, 1000, nil)
	net.Endpoint(3).Send(2, 1000, nil)
	eng.Spawn("rcv", func(p *sim.Proc) {
		a, _ := net.Endpoint(2).Recv(p)
		b, _ := net.Endpoint(2).Recv(p)
		if a.At != 2*sim.Millisecond || b.At != 2*sim.Millisecond {
			t.Errorf("independent links contended: %v, %v", a.At, b.At)
		}
		// Same delivery instant: (at, pri) orders by (source, source seq).
		if a.From != 1 || b.From != 3 {
			t.Errorf("same-instant delivery order not send order: %d then %d", a.From, b.From)
		}
	})
	eng.Run()
}

func TestCallReplyRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	server := net.Endpoint(2)
	eng.Spawn("server", func(p *sim.Proc) {
		for {
			m, ok := server.Recv(p)
			if !ok {
				return
			}
			server.Reply(m, 64, m.Payload.(int)*2)
		}
	})
	var got int
	eng.Spawn("client", func(p *sim.Proc) {
		r := net.Endpoint(1).Call(p, 2, 128, 21)
		got = r.Payload.(int)
		server.Close()
	})
	eng.Run()
	if got != 42 {
		t.Fatalf("reply payload = %d, want 42", got)
	}
}

// TestForwardRepliesToOrigin: a forwarded request's reply must reach the
// original caller, not the forwarder.
func TestForwardRepliesToOrigin(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	mid, far := net.Endpoint(2), net.Endpoint(3)
	eng.Spawn("mid", func(p *sim.Proc) {
		m, ok := mid.Recv(p)
		if ok {
			mid.Forward(m, 3)
		}
	})
	eng.Spawn("far", func(p *sim.Proc) {
		m, ok := far.Recv(p)
		if ok {
			if m.ReplyTo != 1 {
				t.Errorf("forwarded ReplyTo = %d, want 1", m.ReplyTo)
			}
			far.Reply(m, 16, "pong")
		}
	})
	var got any
	eng.Spawn("client", func(p *sim.Proc) {
		got = net.Endpoint(1).Call(p, 2, 16, "ping").Payload
	})
	eng.Run()
	if got != "pong" {
		t.Fatalf("forwarded call reply = %v", got)
	}
}

// TestCallSpanPartition: the netqueue/wire instrumentation must keep the
// span partition exact, with the wire segment equal to the measured
// request+reply wire time.
func TestCallSpanPartition(t *testing.T) {
	eng := sim.NewEngine()
	rec := obs.New(eng)
	net := New(eng, Params{Latency: 1 * sim.Millisecond, BytesPerSec: 1_000_000})
	server := net.Endpoint(2)
	eng.Spawn("server", func(p *sim.Proc) {
		m, ok := server.Recv(p)
		if ok {
			p.Sleep(5 * sim.Millisecond) // remote service time
			server.Reply(m, 1000, nil)
		}
	})
	eng.Spawn("client", func(p *sim.Proc) {
		sp := rec.Begin(p, obs.OpLookup)
		net.Endpoint(1).Call(p, 2, 1000, nil)
		rec.End(p, sp)
	})
	eng.Run()
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	s := spans[0]
	var sum sim.Duration
	for _, v := range s.Seg {
		if v < 0 {
			t.Fatalf("negative segment: %+v", s.Seg)
		}
		sum += v
	}
	if sum != s.End-s.Start {
		t.Fatalf("partition broken: sum %v, span %v", sum, s.End-s.Start)
	}
	// Request: 1ms xmit + 1ms latency; reply the same → 4ms on the wire.
	if s.Seg[obs.StageWire] != 4*sim.Millisecond {
		t.Fatalf("wire = %v, want 4ms", s.Seg[obs.StageWire])
	}
	// Remote service (5ms) stays in netqueue.
	if s.Seg[obs.StageNetQueue] != 5*sim.Millisecond {
		t.Fatalf("netqueue = %v, want 5ms", s.Seg[obs.StageNetQueue])
	}
}

// TestDeterministicTimeline: two identical runs produce identical
// message sequences and traffic counters.
func TestDeterministicTimeline(t *testing.T) {
	run := func() (int64, int64, sim.Time) {
		eng := sim.NewEngine()
		net := New(eng, DefaultParams())
		server := net.Endpoint(9)
		eng.Spawn("server", func(p *sim.Proc) {
			for {
				m, ok := server.Recv(p)
				if !ok {
					return
				}
				server.Reply(m, 32, nil)
			}
		})
		done := 0
		for i := 0; i < 4; i++ {
			i := i
			eng.Spawn("client", func(p *sim.Proc) {
				ep := net.Endpoint(i + 1)
				for j := 0; j < 25; j++ {
					ep.Call(p, 9, 100+i*10+j, nil)
				}
				done++
				if done == 4 {
					server.Close()
				}
			})
		}
		eng.Run()
		tot := net.Totals()
		return tot.Sent, tot.Bytes, eng.Now()
	}
	s1, b1, t1 := run()
	s2, b2, t2 := run()
	if s1 != s2 || b1 != b2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", s1, b1, t1, s2, b2, t2)
	}
	if s1 != 200 { // 100 calls, request + reply each
		t.Fatalf("sent %d messages, want 200", s1)
	}
}

// TestAllocFreeRPC: the steady-state RPC path — pooled call frames,
// pooled message carriers, inbox reuse, busy-map bookkeeping — allocates
// nothing once warm. Two client/server pairs keep the carrier free list
// shared between interleaved calls.
func TestAllocFreeRPC(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	for pair := 0; pair < 2; pair++ {
		server := net.Endpoint(1 + pair)
		client := net.Endpoint(3 + pair)
		eng.Spawn("server", func(p *sim.Proc) {
			for {
				m, ok := server.Recv(p)
				if !ok {
					return
				}
				server.Reply(m, 0, nil)
			}
		})
		sid := 1 + pair
		eng.Spawn("client", func(p *sim.Proc) {
			for {
				client.Call(p, sid, 0, nil)
			}
		})
	}
	window := 50 * net.Params().Latency
	cycle := func() { eng.RunUntil(eng.Now() + window) }
	cycle() // warm: pools, inboxes, heap slices
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state RPC allocates %.1f objects per window, want 0", n)
	}
}
