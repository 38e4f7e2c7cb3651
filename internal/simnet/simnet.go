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
// construction. Deliveries are engine events with a cross-engine priority
// key — (source endpoint, per-source sequence) packed into one word — so
// the global message timeline is totally ordered by (at, pri, seq): two
// messages delivered at the same virtual instant fire in (source, source
// order) order, a rule every engine evaluates identically. That is what
// lets the same network run serially on one engine or partitioned across
// a sim.LPGroup (one engine per endpoint set) with byte-identical
// observable behavior: all state is endpoint-local (send sequences, link
// pipes, call tables, traffic counters — no shared counters, no package
// globals, no wall clock, no map-order iteration), sends from an endpoint
// hosted on another LP are buffered in that LP's outbox and merged at the
// window barrier, and delivery order never depends on which engine hosted
// the sender.
//
// The send path is allocation-free in steady state: delivery payloads are
// value messages carried by pooled carriers that migrate sender → receiver
// (each endpoint pops carriers from its own free list and delivery pushes
// onto the destination's, so each list is touched only by its owner LP).
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

// ZeroLatency is the Params.Latency sentinel for a genuinely free link
// (zero propagation delay). A literal 0 means "default": the zero Params
// value must keep meaning the standard cost model everywhere. Zero-latency
// links are legal on a serial engine but reject parallel partitioning —
// conservative sync needs positive lookahead (sim.NewLPGroup).
const ZeroLatency sim.Duration = -1

// Params is the link cost model, shared by every link in the network.
type Params struct {
	// Latency is the per-message propagation delay (default 200µs;
	// ZeroLatency for a zero-delay link).
	Latency sim.Duration
	// BytesPerSec is the link bandwidth (default 125 MB/s ≈ 1 Gbit/s).
	BytesPerSec int64
}

// DefaultParams returns the standard datacenter-ish cost model.
func DefaultParams() Params {
	return Params{Latency: 200 * sim.Microsecond, BytesPerSec: 125_000_000}
}

// Normalized resolves defaults and sentinels to the effective cost model:
// zero fields take defaults, ZeroLatency becomes a literal 0.
func (p Params) Normalized() Params {
	d := DefaultParams()
	if p.Latency == 0 {
		p.Latency = d.Latency
	} else if p.Latency < 0 {
		p.Latency = 0
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

	// Seq is the sender's per-endpoint send sequence number; (From, Seq)
	// identifies a message globally and orders same-instant deliveries.
	Seq uint64
	// SentAt is when the sender issued the message; At when it arrived.
	SentAt, At sim.Time
	// Queued is time spent waiting for the link pipe; Wire is
	// transmission + propagation. Queued + Wire == At - SentAt.
	Queued, Wire sim.Duration
}

// Totals is the summed traffic of every endpoint. With a parallel group
// the per-endpoint counters live on their host LPs, so read Totals only
// when the group is idle (between runs, or after the final drain).
type Totals struct {
	Sent, Bytes int64
}

// Network connects a set of integer-addressed endpoints over directed
// links sharing one cost model. With a serial engine every endpoint runs
// on it; with a parallel group, endpoint id i is hosted by LP i (the
// dmeta convention: endpoint 0 is the client/router LP, endpoint i node
// i's LP).
type Network struct {
	p   Params
	eng *sim.Engine  // serial host (nil when grp is set)
	grp *sim.LPGroup // parallel host (nil when eng is set)
	eps map[int]*Endpoint
}

// New returns an empty serial network on eng. Zero-valued Params fields
// take defaults (ZeroLatency means a genuine zero-delay link).
func New(eng *sim.Engine, p Params) *Network {
	return &Network{eng: eng, p: p.Normalized(), eps: make(map[int]*Endpoint)}
}

// NewParallel returns an empty network partitioned over g: endpoint id i
// is hosted by g.LP(i), and sends between endpoints on different LPs go
// through the group's outboxes. The group's lookahead must not exceed
// MinDelay — sim.NewLPGroup enforces positivity; the caller wires
// MinDelay in as the lookahead.
func NewParallel(g *sim.LPGroup, p Params) *Network {
	return &Network{grp: g, p: p.Normalized(), eps: make(map[int]*Endpoint)}
}

// Params returns the network's effective cost model.
func (n *Network) Params() Params { return n.p }

// MinDelay is the minimum virtual time any message spends in flight — the
// conservative-sync lookahead a parallel partitioning of this network may
// safely use (transmission time only adds to it).
func (n *Network) MinDelay() sim.Duration { return n.p.Latency }

// Totals sums the per-endpoint traffic counters (see Totals on safety).
func (n *Network) Totals() Totals {
	var t Totals
	for _, ep := range n.eps {
		t.Sent += ep.sent
		t.Bytes += ep.bytes
	}
	return t
}

// Endpoint returns (creating on first use) the endpoint with the given
// address. Addresses are small ints chosen by the caller; on a parallel
// network the address doubles as the host LP index. Create endpoints
// during single-threaded setup — the address table is read-only once the
// simulation runs.
func (n *Network) Endpoint(id int) *Endpoint {
	if ep, ok := n.eps[id]; ok {
		return ep
	}
	ep := &Endpoint{
		n:    n,
		id:   id,
		eng:  n.eng,
		busy: make(map[int]sim.Time),
	}
	if n.grp != nil {
		ep.eng = n.grp.LP(id)
		ep.lp = id
		ep.outbox = n.grp.Outbox(id)
	}
	n.eps[id] = ep
	return ep
}

// carrier is the pooled Delivery that walks a Message into its
// destination's engine. Carriers migrate with the traffic: a sender pops
// from its own free list, and Deliver pushes onto the destination's —
// each list is touched only by the LP that owns it, and steady-state
// RPC traffic (request out, reply back) recycles carriers with zero
// allocation.
type carrier struct {
	dst *Endpoint
	m   Message
}

// Deliver hands the message to the destination endpoint and returns the
// carrier to the destination's free list. It runs on the destination's
// engine, exactly like an At callback.
func (cr *carrier) Deliver() {
	dst := cr.dst
	m := cr.m
	cr.dst = nil
	cr.m = Message{} // drop the payload reference
	dst.pool = append(dst.pool, cr)
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
// inbox. All of an endpoint's state is touched only by its host LP.
type Endpoint struct {
	n      *Network
	id     int
	eng    *sim.Engine
	lp     int         // host LP index (0 on a serial network)
	outbox *sim.Outbox // cross-LP send buffer (nil on a serial network)

	sendSeq uint64           // per-source sequence: Message.Seq and the pri key
	reqID   uint64           // per-endpoint Call id source
	busy    map[int]sim.Time // per-destination pipe occupancy

	sent, bytes int64

	inbox    []Message
	head     int
	wake     *sim.Completion // armed when a receiver is parked
	wakeBuf  *sim.Completion // the (single, reused) completion behind wake
	calls    map[uint64]*call
	callPool []*call
	pool     []*carrier
	closed   bool
}

// ID returns the endpoint's network address.
func (ep *Endpoint) ID() int { return ep.id }

// Host returns the engine the endpoint lives on — the place to spawn
// the processes that serve it.
func (ep *Endpoint) Host() *sim.Engine { return ep.eng }

// Queued returns the inbox depth — the load signal the dmeta split
// policy watches.
func (ep *Endpoint) Queued() int { return len(ep.inbox) - ep.head }

// Sent reports the messages this endpoint has sent.
func (ep *Endpoint) Sent() int64 { return ep.sent }

// priBits is the width of the per-source sequence inside the pri key.
const priBits = 40

// send computes the message's timeline under the link cost model and
// schedules its delivery with pri = (source, source sequence): every
// engine orders a same-instant delivery set identically, whether the
// senders were local or remote.
func (ep *Endpoint) send(m Message) Message {
	now := ep.eng.Now()
	start := ep.busy[m.To]
	if start < now {
		start = now
	}
	xmit := sim.Duration(int64(m.Size) * int64(sim.Second) / ep.n.p.BytesPerSec)
	ep.busy[m.To] = start + xmit

	ep.sendSeq++
	m.Seq = ep.sendSeq
	m.SentAt = now
	m.At = start + xmit + ep.n.p.Latency
	m.Queued = start - now
	m.Wire = xmit + ep.n.p.Latency

	ep.sent++
	ep.bytes += int64(m.Size)

	dst := ep.n.Endpoint(m.To)
	var cr *carrier
	if k := len(ep.pool); k > 0 {
		cr = ep.pool[k-1]
		ep.pool[k-1] = nil
		ep.pool = ep.pool[:k-1]
	} else {
		cr = &carrier{}
	}
	cr.dst = dst
	cr.m = m
	pri := uint64(ep.id+1)<<priBits | (ep.sendSeq & (1<<priBits - 1))
	if ep.outbox != nil && dst.lp != ep.lp {
		ep.outbox.Send(dst.lp, m.At, pri, cr)
	} else {
		ep.eng.AtPri(m.At, pri, cr)
	}
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
		c.done.Fire(ep.eng)
		return
	}
	ep.inbox = append(ep.inbox, m)
	if ep.wake != nil {
		w := ep.wake
		ep.wake = nil
		w.Fire(ep.eng)
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
// discarded unread if nobody Recvs them). Close on a parallel network
// must run on the endpoint's host LP (or between rounds).
func (ep *Endpoint) Close() {
	ep.closed = true
	if ep.wake != nil {
		w := ep.wake
		ep.wake = nil
		w.Fire(ep.eng)
	}
}
