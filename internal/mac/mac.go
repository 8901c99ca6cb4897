// Package mac holds the pieces every channel-access engine shares: the
// MAC-layer packet, bounded per-link FIFO queues, the engine interface the
// traffic generators push into, and the delivery-event plumbing that feeds
// statistics, saturated-source refill, and the TCP model.
//
// Packets are values. A source hands Engine.Enqueue a Packet by value; the
// engine copies an accepted packet into its queue's ring and keeps it in
// storage it owns (the ring, then its in-flight slot) until the packet is
// delivered or dropped. A refused packet is never stored at all. Events
// sinks get a *Packet that names engine-owned storage and is valid only for
// the duration of the call: a sink copies what it needs and keeps no
// pointer.
package mac

import "repro/internal/sim"

// DefaultQueueCap bounds each link's MAC queue (packets). Arrivals beyond it
// are tail-dropped, as in ns-3's default WiFi MAC queue.
const DefaultQueueCap = 2000

// RetryLimit is the 802.11 long-retry limit: a data frame is dropped after
// this many failed transmission attempts.
const RetryLimit = 7

// Packet is one MAC-layer service data unit queued on a link. It holds no
// pointer and is 64 bytes, so a backlog of packets in a queue's ring is a
// flat array the garbage collector never scans.
type Packet struct {
	// Enqueued is when the packet entered the MAC queue; delay is measured
	// from here to successful delivery (paper §4.2.4).
	Enqueued sim.Time
	// Dequeued is when the packet first left the MAC queue for service; the
	// observability layer stamps it once (obs.Run.PacketDequeued) so
	// queueing delay and head-of-line latency split cleanly. Zero when the
	// run has no observability wired.
	Dequeued sim.Time
	// Span is the packet's causal span id (obs), 0 when tracing is off.
	Span int64
	// TxSpan is the span of the transmission (DOMINO slot, CENTAUR epoch,
	// DCF attempt) that last carried the packet, 0 if none.
	TxSpan int64
	// Link is the ID of the link the packet travels on.
	Link int32
	// Bytes is the MAC payload length.
	Bytes int32
	// Seq is a per-link sequence number assigned by the source.
	Seq uint32
	// AckSeq is the cumulative TCP acknowledgement number when TCPAck.
	AckSeq uint32
	// FlowID identifies the transport flow (TCP model); -1 for plain UDP.
	FlowID int32
	// Handle names the packet while an engine holds it: the engine numbers
	// the packets it accepts, so two packets share a handle only 2^32
	// acceptances apart. A data frame carries its packet's handle and the
	// ACK echoes it, so a sender matches an ACK to the packet it sent by
	// handle, across retries and requeues. Sources leave it zero.
	Handle uint32
	// Retries counts transmission attempts so far.
	Retries uint8
	// TCPAck marks transport-level acknowledgements, which DOMINO schedules
	// as regular data packets occupying a whole slot (paper §4.2.3).
	TCPAck bool
}

// Events receives packet outcomes from an engine. Delivered fires when the
// receiver decodes the packet (at most once per packet); Dropped fires when
// the MAC gives up (retry limit or queue overflow). p names engine-owned
// storage and is valid only for the duration of the call: the engine reuses
// it afterwards, so a sink must not keep p or anything it points into.
type Events interface {
	Delivered(p *Packet, now sim.Time)
	Dropped(p *Packet, now sim.Time)
}

// Mux fans events out to several sinks in order.
type Mux []Events

// Delivered implements Events.
func (m Mux) Delivered(p *Packet, now sim.Time) {
	for _, e := range m {
		e.Delivered(p, now)
	}
}

// Dropped implements Events.
func (m Mux) Dropped(p *Packet, now sim.Time) {
	for _, e := range m {
		e.Dropped(p, now)
	}
}

// Hub is a mutable Events fan-out: engines are constructed with the Hub, and
// sinks that themselves need the engine (saturated sources, TCP flows) are
// added afterwards.
type Hub struct {
	sinks []Events
}

// Add appends a sink.
func (h *Hub) Add(e Events) { h.sinks = append(h.sinks, e) }

// Delivered implements Events.
func (h *Hub) Delivered(p *Packet, now sim.Time) {
	for _, e := range h.sinks {
		e.Delivered(p, now)
	}
}

// Dropped implements Events.
func (h *Hub) Dropped(p *Packet, now sim.Time) {
	for _, e := range h.sinks {
		e.Dropped(p, now)
	}
}

// NopEvents discards all events.
type NopEvents struct{}

// Delivered implements Events.
func (NopEvents) Delivered(*Packet, sim.Time) {}

// Dropped implements Events.
func (NopEvents) Dropped(*Packet, sim.Time) {}

// Engine is a channel-access protocol instance: traffic generators push
// packets in, Start arms the initial events, and queue lengths are visible
// for polling protocols and observers.
type Engine interface {
	// Start schedules the engine's initial events. Call once, before Run.
	Start()
	// Enqueue offers a copy of p to the MAC queue of link p.Link and
	// reports whether the queue accepted it. A refused packet (tail drop)
	// is reported via Events.Dropped from storage the engine owns, so the
	// refusal allocates nothing.
	Enqueue(p Packet) bool
	// QueueLen reports the backlog (packets) of the given link ID.
	QueueLen(link int) int
}

// Intake is the admission step every engine's Enqueue shares: it numbers
// the packets an engine accepts and reports the ones it refuses from a
// scratch packet of its own, so a tail drop allocates nothing.
type Intake struct {
	handles uint32 // the last handle assigned
	refused Packet // the refused arrival, valid during its Dropped call
}

// Admit pushes a copy of *p onto q, stamps the queued copy with the next
// handle and returns it, valid until q's next operation. When q is full it
// reports the packet to ev.Dropped at now and returns nil.
func (in *Intake) Admit(q *Queue, p *Packet, ev Events, now sim.Time) *Packet {
	stored := q.Push(p)
	if stored == nil {
		in.refused = *p
		ev.Dropped(&in.refused, now)
		return nil
	}
	in.handles++
	stored.Handle = in.handles
	return stored
}

// Queue is a bounded FIFO of packets for one link: a ring buffer of packet
// values whose power-of-two backing array grows on demand, so every
// operation is O(1) and none allocates once the array has reached the
// queue's working depth.
type Queue struct {
	buf  []Packet // len(buf) is zero or a power of two
	head int      // index of the head packet in buf
	n    int      // packets queued
	cap  int

	// OnDepth, when non-nil, observes the backlog after every accepted push,
	// pop and re-insert — the observability layer's queue-depth sampler.
	// Nil (the default) costs one branch per queue operation.
	OnDepth func(depth int)
}

// minQueueBuf is the backing array's first size.
const minQueueBuf = 8

// NewQueue returns a queue bounded to capacity packets.
func NewQueue(capacity int) *Queue {
	return &Queue{cap: capacity}
}

// grow doubles the backing array, unwrapping the queue to start at index 0.
func (q *Queue) grow() {
	buf := make([]Packet, max(2*len(q.buf), minQueueBuf))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:q.n], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Push appends a copy of *p and returns the queued copy, which stays valid
// until the queue's next operation; nil means the queue is full (tail
// drop) and nothing was stored.
func (q *Queue) Push(p *Packet) *Packet {
	if q.n >= q.cap {
		return nil
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	slot := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	*slot = *p
	q.n++
	if q.OnDepth != nil {
		q.OnDepth(q.n)
	}
	return slot
}

// Pop removes the head and returns it, or reports false when empty.
func (q *Queue) Pop() (Packet, bool) {
	if q.n == 0 {
		return Packet{}, false
	}
	p := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.OnDepth != nil {
		q.OnDepth(q.n)
	}
	return p, true
}

// Peek returns the head in place, valid until the queue's next operation,
// or nil when empty.
func (q *Queue) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// PushFront reinserts a copy of *p at the head (retransmission priority). It
// does not check the bound: a packet taken out for service goes back even
// when arrivals have refilled the queue meanwhile.
func (q *Queue) PushFront(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = *p
	q.n++
	if q.OnDepth != nil {
		q.OnDepth(q.n)
	}
}

// Len returns the backlog in packets.
func (q *Queue) Len() int { return q.n }

// Cap returns the queue bound.
func (q *Queue) Cap() int { return q.cap }
