// Package centaur models CENTAUR (Shrivastava et al., MOBICOM'09) as the
// DOMINO paper describes and evaluates it (§1, §4.2.3): a hybrid data path
// where downlink traffic is centrally scheduled in epochs — hidden links
// separated into different rounds, exposed links placed in the same round —
// while uplink traffic contends with plain DCF. Concurrent (exposed)
// transmissions are aligned only by carrier sensing plus a fixed backoff
// after a common idle reference; there is no tight synchronization, which is
// exactly what breaks in the Fig 13(b) topology: APs that cannot sense each
// other never share a reference, the AP that senses everyone keeps deferring,
// and the epoch barrier makes everybody wait for it.
package centaur

import (
	"sort"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/strict"
	"repro/internal/topo"
)

// Config parameterises a CENTAUR instance.
type Config struct {
	Rate phy.Rate `json:"-"` // from the scenario (scheme.Params)
	// FixedBackoffSlots is the deterministic backoff every scheduled
	// downlink uses after DIFS; a shared idle reference plus an identical
	// backoff is what aligns exposed transmissions.
	FixedBackoffSlots int `domain:"0..1023"`
	// RoundGuard pads each round's nominal duration to absorb wired jitter.
	RoundGuard sim.Time `domain:"0..10ms"`
	// EpochQuota caps packets per link per epoch.
	EpochQuota int `domain:"1..256"`
	// WiredLatencyMean/Std: backbone latency (same model as DOMINO).
	WiredLatencyMean sim.Time `domain:"0..10ms"`
	WiredLatencyStd  sim.Time `domain:"0..10ms"`
	// Uplink DCF parameters.
	CWMin    int `domain:"0..1023"`
	CWMax    int `domain:"0..1023"`
	QueueCap int `domain:"1..100000"`
}

// DefaultConfig mirrors the evaluation's settings.
func DefaultConfig() Config {
	return Config{
		Rate:              phy.Rate12,
		FixedBackoffSlots: 4,
		RoundGuard:        sim.Micros(100),
		EpochQuota:        8,
		WiredLatencyMean:  sim.Micros(285),
		WiredLatencyStd:   sim.Micros(22),
		CWMin:             15,
		CWMax:             1023,
		QueueCap:          mac.DefaultQueueCap,
	}
}

// roundDuration is one scheduled exchange plus access overhead and guard.
func (c Config) roundDuration() sim.Time {
	return phy.Airtime(512, c.Rate) + phy.SIFS + phy.Airtime(phy.AckBytes, c.Rate) +
		phy.DIFS + sim.Time(c.FixedBackoffSlots)*phy.SlotTime + c.RoundGuard
}

// Engine is a CENTAUR deployment.
type Engine struct {
	k      *sim.Kernel
	medium *phy.Medium
	g      *topo.ConflictGraph
	net    *topo.Network
	events mac.Events
	cfg    Config

	queues []*mac.Queue
	nodes  map[phy.NodeID]*node

	// Scheduling state.
	downlinks []*topo.Link
	sched     *strict.RAND
	epochSeq  int
	awaiting  map[phy.NodeID]bool // APs whose epoch-completion report is due

	// debug receives node-level trace lines when non-nil (tests only).
	debug func(phy.NodeID, string)

	// Observability (nil without WireObs): typed epoch records, packet
	// lifecycle stamps, and causal spans tying scheduled downlinks to the
	// epoch that planned them.
	Obs  obs.Tracer
	life *obs.Run
	sp   *obs.Spans

	// Counters.
	Epochs      int
	AckTimeouts int
	Drops       int
}

// epochItem is one scheduled downlink transmission.
type epochItem struct {
	link *topo.Link
	// span is the causal span of the epoch that scheduled this item (0 when
	// spans are off); its transmissions carry it onto the air.
	span int64
	// releaseOffset is the wall-clock gate relative to epoch arrival. Rounds
	// are paced apart only when they conflict across senders — hidden links
	// share no carrier reference, so only the loose wall clock separates
	// them. Non-conflicting rounds release immediately: carrier sensing and
	// the fixed backoff align them on shared idle edges.
	releaseOffset sim.Time
}

// New builds a CENTAUR engine over the full link set; downlinks are
// scheduled, uplinks contend.
func New(k *sim.Kernel, medium *phy.Medium, g *topo.ConflictGraph, events mac.Events, cfg Config) *Engine {
	if events == nil {
		events = mac.NopEvents{}
	}
	e := &Engine{
		k: k, medium: medium, g: g, net: g.Net, events: events, cfg: cfg,
		nodes:    map[phy.NodeID]*node{},
		awaiting: map[phy.NodeID]bool{},
	}
	e.queues = make([]*mac.Queue, len(g.Links))
	var downIDs []int
	for _, l := range g.Links {
		e.queues[l.ID] = mac.NewQueue(cfg.QueueCap)
		if l.Downlink {
			e.downlinks = append(e.downlinks, l)
			downIDs = append(downIDs, l.ID)
		}
	}
	// Downlink-only conflict graph for the central scheduler: reuse the full
	// graph's adjacency through a RAND restricted to downlink IDs.
	e.sched = strict.NewRAND(g)
	add := func(id phy.NodeID) *node {
		n, ok := e.nodes[id]
		if !ok {
			n = &node{e: e, id: id, cw: cfg.CWMin}
			e.nodes[id] = n
			medium.Register(id, n)
		}
		return n
	}
	for _, l := range g.Links {
		s := add(l.Sender)
		if !l.Downlink {
			s.uplinks = append(s.uplinks, l)
		}
		add(l.Receiver)
	}
	return e
}

// Start implements mac.Engine.
func (e *Engine) Start() { e.k.After(0, e.buildEpoch) }

// Enqueue implements mac.Engine.
func (e *Engine) Enqueue(p *mac.Packet) {
	if !e.queues[p.Link.ID].Push(p) {
		e.events.Dropped(p, e.k.Now())
		return
	}
	if e.life != nil {
		e.life.PacketQueued(p, e.k.Now())
	}
	if !p.Link.Downlink {
		n := e.nodes[p.Link.Sender]
		if n.st == stIdle {
			n.serveUplink()
		}
	}
}

// QueueLen implements mac.Engine.
func (e *Engine) QueueLen(link int) int { return e.queues[link].Len() }

// buildEpoch computes rounds for the backlogged downlinks and dispatches
// per-AP schedules over the wire.
func (e *Engine) buildEpoch() {
	e.Epochs++
	e.epochSeq++
	quota := make([]int, len(e.g.Links))
	anything := false
	for _, l := range e.downlinks {
		q := e.queues[l.ID].Len()
		if q > e.cfg.EpochQuota {
			q = e.cfg.EpochQuota
		}
		quota[l.ID] = q
		if q > 0 {
			anything = true
		}
	}
	if !anything {
		// Idle: check again shortly.
		e.k.After(e.cfg.roundDuration(), e.buildEpoch)
		return
	}
	rounds := e.sched.Batch(quota, len(e.downlinks)*e.cfg.EpochQuota)
	var epochSpan int64
	if e.sp != nil {
		epochSpan = e.sp.Next()
	}
	if e.Obs != nil {
		rec := obs.Rec(e.k.Now(), obs.KindEpoch)
		rec.Value = int64(e.epochSeq)
		rec.Extra = int64(len(rounds))
		rec.Span = epochSpan
		rec.OK = true
		e.Obs.Emit(rec)
	}
	perAP := map[phy.NodeID][]epochItem{}
	offset := sim.Time(0)
	for r, slot := range rounds {
		if r > 0 && e.crossSenderConflict(rounds[r-1], slot) {
			offset += e.cfg.roundDuration()
		}
		for _, id := range slot {
			l := e.g.Links[id]
			perAP[l.Sender] = append(perAP[l.Sender], epochItem{link: l, releaseOffset: offset, span: epochSpan})
		}
	}
	// Dispatch in deterministic AP order; every scheduled AP owes a
	// completion report.
	var apIDs []phy.NodeID
	for apID := range perAP {
		apIDs = append(apIDs, apID)
	}
	sort.Slice(apIDs, func(a, b int) bool { return apIDs[a] < apIDs[b] })
	for _, apID := range apIDs {
		e.awaiting[apID] = true
		n := e.nodes[apID]
		items := perAP[apID]
		lat := e.wireLatency()
		e.k.After(lat, func() { n.receiveEpoch(items) })
	}
}

// crossSenderConflict reports whether any link of round b conflicts with a
// different sender's link in round a — the only case wall-clock pacing must
// separate (same-sender sequencing and carrier sensing handle the rest).
func (e *Engine) crossSenderConflict(a, b strict.Slot) bool {
	for _, x := range a {
		for _, y := range b {
			lx, ly := e.g.Links[x], e.g.Links[y]
			if lx.Sender != ly.Sender && e.g.Conflicts(x, y) {
				return true
			}
		}
	}
	return false
}

func (e *Engine) wireLatency() sim.Time {
	lat := e.cfg.WiredLatencyMean +
		sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
	if lat < 0 {
		return 0
	}
	return lat
}

// epochDone is an AP's completion report (after its wired trip): the barrier
// of §4.2.3 — the next epoch is not scheduled until every AP finished.
func (e *Engine) epochDone(ap phy.NodeID) {
	delete(e.awaiting, ap)
	if len(e.awaiting) == 0 {
		e.buildEpoch()
	}
}
