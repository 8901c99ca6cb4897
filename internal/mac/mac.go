// Package mac holds the pieces every channel-access engine shares: the
// MAC-layer packet, bounded per-link FIFO queues, the engine interface the
// traffic generators push into, and the delivery-event plumbing that feeds
// statistics, saturated-source refill, and the TCP model.
package mac

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// DefaultQueueCap bounds each link's MAC queue (packets). Arrivals beyond it
// are tail-dropped, as in ns-3's default WiFi MAC queue.
const DefaultQueueCap = 2000

// RetryLimit is the 802.11 long-retry limit: a data frame is dropped after
// this many failed transmission attempts.
const RetryLimit = 7

// Packet is one MAC-layer service data unit queued on a link.
type Packet struct {
	// Link the packet travels on.
	Link *topo.Link
	// Bytes is the MAC payload length.
	Bytes int
	// Enqueued is when the packet entered the MAC queue; delay is measured
	// from here to successful delivery (paper §4.2.4).
	Enqueued sim.Time
	// Seq is a per-link sequence number assigned by the source.
	Seq uint64
	// FlowID identifies the transport flow (TCP model); -1 for plain UDP.
	FlowID int
	// TCPAck marks transport-level acknowledgements, which DOMINO schedules
	// as regular data packets occupying a whole slot (paper §4.2.3).
	TCPAck bool
	// AckSeq is the cumulative TCP acknowledgement number when TCPAck.
	AckSeq uint64
	// Retries counts transmission attempts so far.
	Retries int
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
}

// Events receives packet outcomes from an engine. Delivered fires when the
// receiver decodes the packet (at most once per packet); Dropped fires when
// the MAC gives up (retry limit or queue overflow).
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
	// Enqueue offers a packet to the MAC queue of p.Link. The engine may
	// tail-drop it (reported via Events.Dropped).
	Enqueue(p *Packet)
	// QueueLen reports the backlog (packets) of the given link ID.
	QueueLen(link int) int
}

// Queue is a bounded FIFO of packets for one link: a ring buffer whose
// power-of-two backing array grows on demand, so every operation is O(1) and
// none allocates once the array has reached the queue's working depth.
type Queue struct {
	buf  []*Packet // len(buf) is zero or a power of two
	head int       // index of the head packet in buf
	n    int       // packets queued
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
	buf := make([]*Packet, max(2*len(q.buf), minQueueBuf))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:q.n], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Push appends p and reports whether it was accepted (false: tail drop).
func (q *Queue) Push(p *Packet) bool {
	if q.n >= q.cap {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
	if q.OnDepth != nil {
		q.OnDepth(q.n)
	}
	return true
}

// Pop removes and returns the head, or nil when empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.OnDepth != nil {
		q.OnDepth(q.n)
	}
	return p
}

// Peek returns the head without removing it, or nil when empty.
func (q *Queue) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// PushFront reinserts a packet at the head (retransmission priority). It
// does not check the bound: a packet taken out for service goes back even
// when arrivals have refilled the queue meanwhile.
func (q *Queue) PushFront(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = p
	q.n++
	if q.OnDepth != nil {
		q.OnDepth(q.n)
	}
}

// Len returns the backlog in packets.
func (q *Queue) Len() int { return q.n }

// Cap returns the queue bound.
func (q *Queue) Cap() int { return q.cap }
