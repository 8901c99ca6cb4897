// Package strict implements strict (slot-indexed) centralized scheduling: the
// RAND-style greedy maximal-independent-set scheduler the paper modifies
// (§4.2.1, after Ramanathan), and an omniscient executor that runs a strict
// schedule under perfect time synchronization with perfect queue knowledge —
// the upper bound of paper Fig 2. DOMINO's converter (internal/convert) turns
// the same schedules into trigger-driven relative schedules.
package strict

import (
	"sort"

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
// algorithm"); RAND and LQF are provided.
type Scheduler interface {
	// NextSlot builds one slot from the links for which backlog reports a
	// positive backlog; nil when nothing is backlogged. backlog(id) returns
	// the number of queued packets on link id.
	NextSlot(backlog func(link int) int) Slot
	// Batch schedules up to maxSlots slots against estimated backlogs
	// (packets per link), decrementing estimates as links are scheduled.
	Batch(est []int, maxSlots int) Schedule
}

// RAND is the greedy scheduler: for each slot, take the first backlogged
// link in the rotation queue, then greedily add every later backlogged link
// that conflicts with nothing already chosen; rotate the chosen links to the
// back for fairness.
type RAND struct {
	g     *topo.ConflictGraph
	order []int // rotation queue Q of link IDs
	spare []int // the previous rotation's buffer, reused by the next
}

// NewRAND builds the scheduler over a conflict graph.
func NewRAND(g *topo.ConflictGraph) *RAND {
	r := &RAND{g: g, order: make([]int, len(g.Links))}
	for i := range r.order {
		r.order[i] = i
	}
	return r
}

// NextSlot builds one slot from the links with positive backlog, rotating
// scheduled links to the back of Q. It returns nil when nothing is
// backlogged.
func (r *RAND) NextSlot(backlog func(link int) int) Slot {
	var slot Slot
	chosen := make(map[int]bool)
	for _, id := range r.order {
		if backlog(id) <= 0 || chosen[id] {
			continue
		}
		ok := true
		for _, s := range slot {
			if r.g.Conflicts(id, s) {
				ok = false
				break
			}
		}
		if ok {
			slot = append(slot, id)
			chosen[id] = true
		}
	}
	if len(slot) == 0 {
		return nil
	}
	// Move the chosen links to the end of Q, preserving relative order.
	rest := r.spare[:0]
	for _, id := range r.order {
		if !chosen[id] {
			rest = append(rest, id)
		}
	}
	r.spare, r.order = r.order, append(rest, slot...)
	return slot
}

// Batch schedules up to maxSlots slots against an estimated backlog
// (packets per link), decrementing estimates as links are scheduled — the
// central server's planning step between pollings. Scheduling stops early
// when the estimates drain.
func (r *RAND) Batch(est []int, maxSlots int) Schedule {
	return batchOf(r, est, maxSlots)
}

// batchOf drains a copy of est through s.NextSlot for up to maxSlots slots —
// the shared Batch body of every registered policy.
func batchOf(s Scheduler, est []int, maxSlots int) Schedule {
	remaining := append([]int(nil), est...)
	var out Schedule
	for len(out) < maxSlots {
		slot := s.NextSlot(func(id int) int { return remaining[id] })
		if slot == nil {
			break
		}
		for _, id := range slot {
			remaining[id]--
		}
		out = append(out, slot)
	}
	return out
}

// LQF is a longest-queue-first greedy scheduler: each slot is seeded with the
// most-backlogged link, then extended greedily by the next-longest compatible
// queues — a max-weight-flavoured alternative demonstrating the converter's
// scheduler-independence.
type LQF struct {
	g *topo.ConflictGraph
}

// NewLQF builds the scheduler over a conflict graph.
func NewLQF(g *topo.ConflictGraph) *LQF { return &LQF{g: g} }

// NextSlot implements Scheduler.
func (l *LQF) NextSlot(backlog func(link int) int) Slot {
	type cand struct {
		id int
		q  int
	}
	var cands []cand
	for id := range l.g.Links {
		if q := backlog(id); q > 0 {
			cands = append(cands, cand{id, q})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Longest queue first; ties by link ID for determinism.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].q != cands[b].q {
			return cands[a].q > cands[b].q
		}
		return cands[a].id < cands[b].id
	})
	var slot Slot
	for _, c := range cands {
		ok := true
		for _, s := range slot {
			if l.g.Conflicts(c.id, s) {
				ok = false
				break
			}
		}
		if ok {
			slot = append(slot, c.id)
		}
	}
	return slot
}

// Batch implements Scheduler.
func (l *LQF) Batch(est []int, maxSlots int) Schedule {
	return batchOf(l, est, maxSlots)
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
	add := func(id phy.NodeID) {
		if _, ok := e.nodes[id]; !ok {
			n := &onode{e: e, id: id}
			e.nodes[id] = n
			medium.Register(id, n)
		}
	}
	for _, l := range g.Links {
		add(l.Sender)
		add(l.Receiver)
	}
	return e
}

// Start implements mac.Engine.
func (e *Omniscient) Start() { e.k.After(0, e.tick).SetSource(sim.SrcMAC) }

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
	slot := e.sched.NextSlot(func(id int) int { return e.queues[id].Len() })
	if slot == nil {
		// Idle: poll again after one empty slot.
		e.k.After(e.slotDuration(512), e.tick).SetSource(sim.SrcMAC)
		return
	}
	e.Slots++
	maxBytes := 0
	for _, id := range slot {
		if b := int(e.queues[id].Peek().Bytes); b > maxBytes {
			maxBytes = b
		}
	}
	for _, id := range slot {
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
	dur := e.slotDuration(maxBytes)
	e.k.After(dur, func() {
		for _, id := range slot {
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
	}).SetSource(sim.SrcMAC)
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
		n.e.k.After(phy.SIFS, func() {
			if n.e.medium.Transmitting(n.id) {
				return
			}
			n.e.medium.Transmit(n.id, &phy.Frame{
				Kind: phy.Ack, Dst: f.Src, Bytes: phy.AckBytes,
				Rate: n.e.cfg.Rate, Handle: f.Handle,
			})
		})
	case phy.Ack:
		if n.busy && f.Handle == n.inflight.Handle {
			n.acked = true
		}
	}
}
