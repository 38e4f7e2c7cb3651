// Package simnet is a simulated message network between processes — the
// fabric the sharded metadata service (internal/dmeta) runs over. It
// models each directed endpoint pair as an independent link with a serial
// transmission pipe (bandwidth) followed by a propagation delay (latency):
//
//	xmitStart = max(now, link.busyUntil)   // earlier messages hold the pipe
//	deliverAt = xmitStart + size/bandwidth + latency
//	busyUntil = xmitStart + size/bandwidth
//
// Because busyUntil is monotone per link, per-link delivery is FIFO by
// construction. Deliveries are engine events with a priority key —
// (source endpoint, per-source sequence) packed into one word — so the
// message timeline is totally ordered by (at, pri, seq): two messages
// delivered at the same virtual instant fire in (source, source order)
// order. There are no package globals, no wall clock and no map-order
// iteration, so a run is a pure function of its inputs.
//
// The send path is allocation-free in steady state: delivery payloads are
// value messages carried by pooled carriers, taken from the network's
// free list on send and returned to it on delivery.
//
// Instrumentation: Call brackets its blocking wait in StageNetQueue and,
// on reply, retroactively moves the measured wire time (request + reply
// transmission and propagation) into StageWire via Span.PopNet — the
// span partition invariant sum(Seg) == End-Start holds exactly for
// distributed operations too.
package simnet

import (
	"fmt"

	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// Params is the link cost model, shared by every link in the network.
type Params struct {
	// Latency is the per-message propagation delay (default 200µs).
	Latency sim.Duration
	// BytesPerSec is the link bandwidth (default 125 MB/s ≈ 1 Gbit/s).
	BytesPerSec int64
}

// DefaultParams returns the standard datacenter-ish cost model.
func DefaultParams() Params {
	return Params{Latency: 200 * sim.Microsecond, BytesPerSec: 125_000_000}
}

// Normalized resolves defaults to the effective cost model: zero or
// negative fields take defaults.
func (p Params) Normalized() Params {
	d := DefaultParams()
	if p.Latency <= 0 {
		p.Latency = d.Latency
	}
	if p.BytesPerSec <= 0 {
		p.BytesPerSec = d.BytesPerSec
	}
	return p
}

func (p Params) String() string {
	return fmt.Sprintf("lat%d,bw%d", p.Latency, p.BytesPerSec)
}

// Message is one delivered datagram. The payload crosses by reference
// (this is a simulation, not a serializer); Size drives the cost model.
type Message struct {
	From, To int
	Size     int
	Payload  any

	// RPC bookkeeping: ReqID matches a reply to its Call (scoped to the
	// calling endpoint), ReplyTo is the endpoint the reply must reach
	// (preserved across Forward so replies skip intermediaries).
	ReqID   uint64
	ReplyTo int
	IsReply bool

	// SentAt is when the sender issued the message; At when it arrived.
	SentAt, At sim.Time
	// Queued is time spent waiting for the link pipe; Wire is
	// transmission + propagation. Queued + Wire == At - SentAt.
	Queued, Wire sim.Duration
}

// Totals is the summed traffic of every endpoint.
type Totals struct {
	Sent, Bytes int64
}

// Network connects a set of integer-addressed endpoints over directed
// links sharing one cost model, all on one engine.
type Network struct {
	p    Params
	eng  *sim.Engine
	eps  map[int]*Endpoint
	pool []*carrier // idle delivery carriers, LIFO
}

// New returns an empty network on eng. Zero-valued Params fields take
// defaults.
func New(eng *sim.Engine, p Params) *Network {
	return &Network{eng: eng, p: p.Normalized(), eps: make(map[int]*Endpoint)}
}

// Params returns the network's effective cost model.
func (n *Network) Params() Params { return n.p }

// MinDelay is the minimum virtual time any message spends in flight
// (transmission time only adds to it).
func (n *Network) MinDelay() sim.Duration { return n.p.Latency }

// Totals sums the per-endpoint traffic counters.
func (n *Network) Totals() Totals {
	var t Totals
	for _, ep := range n.eps {
		t.Sent += ep.sent
		t.Bytes += ep.bytes
	}
	return t
}

// Endpoint returns (creating on first use) the endpoint with the given
// address. Addresses are small ints chosen by the caller.
func (n *Network) Endpoint(id int) *Endpoint {
	if ep, ok := n.eps[id]; ok {
		return ep
	}
	ep := &Endpoint{
		n:    n,
		id:   id,
		busy: make(map[int]sim.Time),
	}
	n.eps[id] = ep
	return ep
}

// carrier is the pooled Delivery that walks a Message to its destination.
// Steady-state RPC traffic (request out, reply back) recycles carriers
// through the network's free list with zero allocation.
type carrier struct {
	dst *Endpoint
	m   Message
}

// Deliver hands the message to the destination endpoint and returns the
// carrier to the network's free list. It runs in engine context, exactly
// like an At callback.
func (cr *carrier) Deliver() {
	dst := cr.dst
	m := cr.m
	cr.dst = nil
	cr.m = Message{} // drop the payload reference
	dst.n.pool = append(dst.n.pool, cr)
	dst.deliver(m)
}

type call struct {
	done  *sim.Completion
	reply Message
}

// Endpoint is one addressable participant: an inbox of requests, a table
// of in-flight outbound calls, and the sender-side halves of its outgoing
// links (pipe occupancy, send sequence, traffic counters). One process
// may serve the inbox (Recv) while others issue Calls through the same
// endpoint — replies are demultiplexed by ReqID and never enter the
// inbox.
type Endpoint struct {
	n  *Network
	id int

	sendSeq uint64           // per-source sequence: the pri key
	reqID   uint64           // per-endpoint Call id source
	busy    map[int]sim.Time // per-destination pipe occupancy

	sent, bytes int64

	inbox    []Message
	head     int
	wake     *sim.Completion // armed when a receiver is parked
	wakeBuf  *sim.Completion // the (single, reused) completion behind wake
	calls    map[uint64]*call
	callPool []*call
	closed   bool
}

// Queued returns the inbox depth — the load signal the dmeta split
// policy watches.
func (ep *Endpoint) Queued() int { return len(ep.inbox) - ep.head }

// priBits is the width of the per-source sequence inside the pri key.
const priBits = 40

// send computes the message's timeline under the link cost model and
// schedules its delivery with pri = (source, source sequence), which
// orders a same-instant delivery set by sender.
func (ep *Endpoint) send(m Message) Message {
	eng := ep.n.eng
	now := eng.Now()
	start := ep.busy[m.To]
	if start < now {
		start = now
	}
	xmit := sim.Duration(int64(m.Size) * int64(sim.Second) / ep.n.p.BytesPerSec)
	ep.busy[m.To] = start + xmit

	ep.sendSeq++
	m.SentAt = now
	m.At = start + xmit + ep.n.p.Latency
	m.Queued = start - now
	m.Wire = xmit + ep.n.p.Latency

	ep.sent++
	ep.bytes += int64(m.Size)

	var cr *carrier
	if k := len(ep.n.pool); k > 0 {
		cr = ep.n.pool[k-1]
		ep.n.pool[k-1] = nil
		ep.n.pool = ep.n.pool[:k-1]
	} else {
		cr = &carrier{}
	}
	cr.dst = ep.n.Endpoint(m.To)
	cr.m = m
	eng.AtPri(m.At, uint64(ep.id+1)<<priBits|(ep.sendSeq&(1<<priBits-1)), cr)
	return m
}

func (ep *Endpoint) deliver(m Message) {
	if m.IsReply {
		c, ok := ep.calls[m.ReqID]
		if !ok {
			panic(fmt.Sprintf("simnet: endpoint %d got reply for unknown call %d", ep.id, m.ReqID))
		}
		delete(ep.calls, m.ReqID)
		c.reply = m
		c.done.Fire(ep.n.eng)
		return
	}
	ep.inbox = append(ep.inbox, m)
	if ep.wake != nil {
		w := ep.wake
		ep.wake = nil
		w.Fire(ep.n.eng)
	}
}

// Send transmits a one-way message (no reply expected).
func (ep *Endpoint) Send(to, size int, payload any) {
	ep.send(Message{From: ep.id, To: to, Size: size, Payload: payload, ReplyTo: ep.id})
}

// Call sends a request and blocks p until the matching reply arrives.
// The wait is recorded as StageNetQueue on p's span, with the measured
// wire time of both directions split out into StageWire.
func (ep *Endpoint) Call(p *sim.Proc, to, size int, payload any) Message {
	t0 := p.Now()
	sp := obs.SpanOf(p)
	sp.Push(p, obs.StageNetQueue)
	ep.reqID++
	id := ep.reqID
	var c *call
	if k := len(ep.callPool); k > 0 {
		c = ep.callPool[k-1]
		ep.callPool[k-1] = nil
		ep.callPool = ep.callPool[:k-1]
	} else {
		c = &call{done: sim.NewCompletion()}
	}
	if ep.calls == nil {
		ep.calls = make(map[uint64]*call)
	}
	ep.calls[id] = c
	req := ep.send(Message{
		From: ep.id, To: to, Size: size, Payload: payload,
		ReqID: id, ReplyTo: ep.id,
	})
	c.done.Wait(p)
	sp.PopNet(p, t0, req.Wire+c.reply.Wire)
	reply := c.reply
	c.reply = Message{} // drop the payload reference
	c.done.Reset()
	ep.callPool = append(ep.callPool, c)
	return reply
}

// Reply answers a request previously received via Recv (possibly after
// forwarding); the reply travels to the original caller's endpoint.
func (ep *Endpoint) Reply(req Message, size int, payload any) {
	ep.send(Message{
		From: ep.id, To: req.ReplyTo, Size: size, Payload: payload,
		ReqID: req.ReqID, IsReply: true, ReplyTo: ep.id,
	})
}

// Forward re-transmits a received request to another endpoint, keeping
// the original caller's ReqID/ReplyTo so the eventual Reply goes
// straight back to them.
func (ep *Endpoint) Forward(m Message, to int) {
	ep.send(Message{
		From: ep.id, To: to, Size: m.Size, Payload: m.Payload,
		ReqID: m.ReqID, ReplyTo: m.ReplyTo,
	})
}

// Recv blocks p until a request is available (replies never surface
// here) and returns it; ok is false once the endpoint is closed and
// drained, the server's signal to exit.
func (ep *Endpoint) Recv(p *sim.Proc) (Message, bool) {
	for ep.head >= len(ep.inbox) {
		if ep.closed {
			return Message{}, false
		}
		if ep.wake == nil {
			// Re-arm the pooled completion: parking is on the per-request
			// serve path, and Reset reuses the waiter slices, so a steady
			// request stream parks allocation-free.
			if ep.wakeBuf == nil {
				ep.wakeBuf = sim.NewCompletion()
			} else {
				ep.wakeBuf.Reset()
			}
			ep.wake = ep.wakeBuf
		}
		ep.wake.Wait(p)
	}
	m := ep.inbox[ep.head]
	ep.inbox[ep.head] = Message{} // drop payload reference
	ep.head++
	if ep.head == len(ep.inbox) {
		ep.inbox = ep.inbox[:0]
		ep.head = 0
	}
	return m, true
}

// Close marks the endpoint closed and wakes any parked receiver so its
// server loop can exit. In-flight deliveries still land (and are
// discarded unread if nobody Recvs them).
func (ep *Endpoint) Close() {
	ep.closed = true
	if ep.wake != nil {
		w := ep.wake
		ep.wake = nil
		w.Fire(ep.n.eng)
	}
}
