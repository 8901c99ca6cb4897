// Package strict implements strict (slot-indexed) centralized scheduling: the
// RAND-style greedy maximal-independent-set scheduler the paper modifies
// (§4.2.1, after Ramanathan), and an omniscient executor that runs a strict
// schedule under perfect time synchronization with perfect queue knowledge —
// the upper bound of paper Fig 2. DOMINO's converter (internal/convert) turns
// the same schedules into trigger-driven relative schedules.
package strict

import (
	"cmp"
	"slices"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Slot is a set of link IDs scheduled to transmit concurrently.
type Slot []int

// Schedule is a sequence of slots (one batch of strict scheduling).
type Schedule []Slot

// Scheduler produces strict schedules from backlog information. DOMINO's
// converter accepts any implementation (the paper's claim: relative
// scheduling "is able to work with any arbitrary centralized scheduling
// algorithm"); RAND, LQF, RoundRobin and Weighted are provided.
type Scheduler interface {
	// AppendSlot appends one conflict-free slot, built from the links for
	// which backlog reports a positive backlog, to dst and returns the
	// extended slice; nil when nothing is backlogged. backlog(id) returns
	// the number of queued packets on link id. The links already in dst
	// stay as they are, and a caller that passes a buffer with room gets
	// its slot without an allocation.
	AppendSlot(dst []int, backlog func(link int) int) []int
}

// Batcher drains estimated backlogs through its Scheduler into a batch of
// slots — the central server's planning step between pollings. Its storage
// is reused by every Batch call, so a Batcher is not copied once used.
type Batcher struct {
	S Scheduler

	out       Schedule
	ids       []int // the batch's link IDs, slot after slot
	remaining []int
	// backlog reads remaining; bound once, so a batch allocates no closure.
	backlog func(link int) int
}

// Batch schedules up to maxSlots slots against an estimated backlog (packets
// per link), decrementing a copy of the estimates as links are scheduled;
// scheduling stops early when the estimates drain. The schedule lives in b,
// valid until its next Batch call.
func (b *Batcher) Batch(est []int, maxSlots int) Schedule {
	if b.backlog == nil {
		b.backlog = func(id int) int { return b.remaining[id] }
	}
	b.remaining = append(b.remaining[:0], est...)
	b.out, b.ids = b.out[:0], b.ids[:0]
	for len(b.out) < maxSlots {
		n := len(b.ids)
		ids := b.S.AppendSlot(b.ids, b.backlog)
		if ids == nil {
			break
		}
		b.ids = ids
		// Cap the slot at its end: ids appended later never reach it, and
		// when they outgrow the buffer, earlier slots keep the old array.
		slot := Slot(b.ids[n:len(b.ids):len(b.ids)])
		for _, id := range slot {
			b.remaining[id]--
		}
		b.out = append(b.out, slot)
	}
	return b.out
}

// RAND is the greedy scheduler: for each slot, take the first backlogged
// link in the rotation queue, then greedily add every later backlogged link
// that conflicts with nothing already chosen; rotate the chosen links to the
// back for fairness.
type RAND struct {
	g      *topo.ConflictGraph
	order  []int  // rotation queue Q of link IDs
	spare  []int  // the previous rotation's buffer, reused by the next
	chosen []bool // by link ID: in the slot being built (all false between calls)
}

// NewRAND builds the scheduler over a conflict graph.
func NewRAND(g *topo.ConflictGraph) *RAND {
	r := &RAND{g: g, order: make([]int, len(g.Links)), chosen: make([]bool, len(g.Links))}
	for i := range r.order {
		r.order[i] = i
	}
	return r
}

// AppendSlot implements Scheduler, rotating the scheduled links to the back
// of Q.
func (r *RAND) AppendSlot(dst []int, backlog func(link int) int) []int {
	n := len(dst)
	for _, id := range r.order {
		if backlog(id) <= 0 || r.chosen[id] {
			continue
		}
		if !conflictsAny(r.g, id, dst[n:]) {
			dst = append(dst, id)
			r.chosen[id] = true
		}
	}
	slot := dst[n:]
	if len(slot) == 0 {
		return nil
	}
	// Move the chosen links to the end of Q, preserving relative order.
	rest := r.spare[:0]
	for _, id := range r.order {
		if !r.chosen[id] {
			rest = append(rest, id)
		}
	}
	r.spare, r.order = r.order, append(rest, slot...)
	for _, id := range slot {
		r.chosen[id] = false
	}
	return dst
}

// conflictsAny reports whether link id conflicts with any link of slot.
func conflictsAny(g *topo.ConflictGraph, id int, slot []int) bool {
	for _, s := range slot {
		if g.Conflicts(id, s) {
			return true
		}
	}
	return false
}

// LQF is a longest-queue-first greedy scheduler: each slot is seeded with the
// most-backlogged link, then extended greedily by the next-longest compatible
// queues — a max-weight-flavoured alternative demonstrating the converter's
// scheduler-independence.
type LQF struct {
	g *topo.ConflictGraph
	// cands is AppendSlot's candidate buffer, reused slot to slot.
	cands []lqfCand
}

// lqfCand is one backlogged link and its backlog.
type lqfCand struct{ id, q int }

// NewLQF builds the scheduler over a conflict graph.
func NewLQF(g *topo.ConflictGraph) *LQF { return &LQF{g: g} }

// AppendSlot implements Scheduler.
func (l *LQF) AppendSlot(dst []int, backlog func(link int) int) []int {
	l.cands = l.cands[:0]
	for id := range l.g.Links {
		if q := backlog(id); q > 0 {
			l.cands = append(l.cands, lqfCand{id, q})
		}
	}
	if len(l.cands) == 0 {
		return nil
	}
	// Longest queue first; ties by link ID for determinism.
	slices.SortFunc(l.cands, func(a, b lqfCand) int {
		return cmp.Or(cmp.Compare(b.q, a.q), cmp.Compare(a.id, b.id))
	})
	n := len(dst)
	for _, c := range l.cands {
		if !conflictsAny(l.g, c.id, dst[n:]) {
			dst = append(dst, c.id)
		}
	}
	return dst
}

// Config parameterises the omniscient executor.
type Config struct {
	Rate phy.Rate `json:"-"` // from the scenario (scheme.Params)
	// SlotGuard pads each slot beyond data + SIFS + ACK; at least 1 µs, so
	// no sender starts its next frame while its ACK is still on the air.
	SlotGuard sim.Time `domain:"1us..1ms"`
	QueueCap  int      `domain:"1..100000"`
}

// DefaultConfig uses the evaluation's 12 Mbps rate.
func DefaultConfig() Config {
	return Config{Rate: phy.Rate12, SlotGuard: phy.SlotTime, QueueCap: mac.DefaultQueueCap}
}

// Omniscient executes strict schedules with perfect synchronization and
// perfect queue knowledge: at every slot boundary it computes a fresh RAND
// slot from the true queues and fires all scheduled senders simultaneously.
// Frames still traverse the physical medium — if the conflict graph admits a
// combination whose aggregate interference breaks a link, the loss is real
// and the packet retries.
type Omniscient struct {
	k      *sim.Kernel
	medium *phy.Medium
	links  []*topo.Link
	events mac.Events
	cfg    Config
	sched  *RAND
	queues []*mac.Queue
	intake mac.Intake
	nodes  map[phy.NodeID]*onode

	// slot is the slot on the air, in a buffer every tick reuses.
	slot []int
	// backlogFn, tickFn and slotEndFn are the tick's callbacks, bound once
	// in New so a slot allocates no closure.
	backlogFn func(link int) int
	tickFn    func()
	slotEndFn func()

	// Slots counts scheduling rounds; Failures counts unacknowledged
	// transmissions (which are retried).
	Slots    int
	Failures int
}

type onode struct {
	e  *Omniscient
	id phy.NodeID
	// inflight is the packet awaiting its ACK this slot, valid while busy.
	inflight mac.Packet
	busy     bool
	acked    bool
	// acks[ackHead:] are the ACKs owed, oldest first: every ACK waits the
	// same SIFS, so they fall due in the order owed and one callback,
	// ackFn, serves them all.
	acks    []pendingAck
	ackHead int
	ackFn   func()
}

// pendingAck is an ACK owed to dst for the data frame carrying handle h,
// copied out of the frame, which is valid only during FrameReceived.
type pendingAck struct {
	dst phy.NodeID
	h   uint32
}

// New builds the omniscient executor.
func New(k *sim.Kernel, medium *phy.Medium, g *topo.ConflictGraph, events mac.Events, cfg Config) *Omniscient {
	if events == nil {
		events = mac.NopEvents{}
	}
	e := &Omniscient{
		k: k, medium: medium, links: g.Links, events: events, cfg: cfg,
		sched: NewRAND(g), nodes: map[phy.NodeID]*onode{},
	}
	e.queues = make([]*mac.Queue, len(g.Links))
	for _, l := range g.Links {
		e.queues[l.ID] = mac.NewQueue(cfg.QueueCap)
	}
	e.backlogFn = func(id int) int { return e.queues[id].Len() }
	e.tickFn, e.slotEndFn = e.tick, e.slotEnd
	add := func(id phy.NodeID) {
		if _, ok := e.nodes[id]; !ok {
			n := &onode{e: e, id: id}
			n.ackFn = n.ack
			e.nodes[id] = n
			medium.Register(id, n, phy.Kinds())
		}
	}
	for _, l := range g.Links {
		add(l.Sender)
		add(l.Receiver)
	}
	return e
}

// Start implements mac.Engine.
func (e *Omniscient) Start() { e.k.After(0, e.tickFn).SetSource(sim.SrcMAC) }

// Enqueue implements mac.Engine.
func (e *Omniscient) Enqueue(p mac.Packet) bool {
	return e.intake.Admit(e.queues[p.Link], &p, e.events, e.k.Now()) != nil
}

// QueueLen implements mac.Engine.
func (e *Omniscient) QueueLen(link int) int { return e.queues[link].Len() }

// slotDuration is the fixed per-slot air time: the longest data frame plus
// SIFS, ACK and guard.
func (e *Omniscient) slotDuration(maxBytes int) sim.Time {
	return phy.Airtime(maxBytes, e.cfg.Rate) + phy.SIFS +
		phy.Airtime(phy.AckBytes, e.cfg.Rate) + e.cfg.SlotGuard
}

func (e *Omniscient) tick() {
	e.slot = e.sched.AppendSlot(e.slot[:0], e.backlogFn)
	if e.slot == nil {
		// Idle: poll again after one empty slot.
		e.k.After(e.slotDuration(512), e.tickFn).SetSource(sim.SrcMAC)
		return
	}
	e.Slots++
	maxBytes := 0
	for _, id := range e.slot {
		if b := int(e.queues[id].Peek().Bytes); b > maxBytes {
			maxBytes = b
		}
	}
	for _, id := range e.slot {
		l := e.links[id]
		p, _ := e.queues[id].Pop()
		n := e.nodes[l.Sender]
		n.inflight, n.busy = p, true
		n.acked = false
		e.medium.Transmit(l.Sender, &phy.Frame{
			Kind: phy.Data, Dst: l.Receiver, Bytes: int(p.Bytes), Rate: e.cfg.Rate,
			Handle: p.Handle,
		})
	}
	e.k.After(e.slotDuration(maxBytes), e.slotEndFn).SetSource(sim.SrcMAC)
}

// slotEnd settles the slot on the air, delivering acknowledged packets and
// requeueing the rest, then starts the next slot.
func (e *Omniscient) slotEnd() {
	for _, id := range e.slot {
		n := e.nodes[e.links[id].Sender]
		if !n.busy {
			continue
		}
		n.busy = false
		p := &n.inflight
		if n.acked {
			e.events.Delivered(p, e.k.Now())
		} else {
			// Retry at the head of the queue next time the scheduler
			// picks this link.
			e.Failures++
			p.Retries++
			if p.Retries > mac.RetryLimit {
				e.events.Dropped(p, e.k.Now())
			} else {
				e.queues[id].PushFront(p)
			}
		}
	}
	e.tick()
}

// CarrierChanged implements phy.Listener; the omniscient executor ignores
// carrier sensing entirely.
func (*onode) CarrierChanged(bool) {}

// FrameReceived implements phy.Listener.
func (n *onode) FrameReceived(f *phy.Frame, ok bool, _ *phy.SignatureDetection) {
	if !ok || f.Dst != n.id {
		return
	}
	switch f.Kind {
	case phy.Data:
		n.acks = append(n.acks, pendingAck{dst: f.Src, h: f.Handle})
		n.e.k.After(phy.SIFS, n.ackFn).SetSource(sim.SrcMAC)
	case phy.Ack:
		if n.busy && f.Handle == n.inflight.Handle {
			n.acked = true
		}
	}
}

// ack sends the oldest owed ACK, unless the node is transmitting.
func (n *onode) ack() {
	a := n.acks[n.ackHead]
	if n.ackHead++; n.ackHead == len(n.acks) {
		n.acks, n.ackHead = n.acks[:0], 0
	}
	if n.e.medium.Transmitting(n.id) {
		return
	}
	n.e.medium.Transmit(n.id, &phy.Frame{
		Kind: phy.Ack, Dst: a.dst, Bytes: phy.AckBytes,
		Rate: n.e.cfg.Rate, Handle: a.h,
	})
}
