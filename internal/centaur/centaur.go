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
//
// Every frame goes out through dcf's contention stations: clients' uplinks
// contend on their ordinary round-robin path, and each released downlink is
// handed to its AP's station as a fixed-backoff send. This package adds only
// what CENTAUR adds to DCF: epoch building, the wired backbone, the epoch
// barrier and each AP's release timer.
package centaur

import (
	"sort"

	"repro/internal/dcf"
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

// Engine is a CENTAUR deployment. The embedded dcf engine holds the link
// queues and the stations (Enqueue, QueueLen and the AckTimeouts and Drops
// counters come from it); its downlinks are held for the epoch scheduler.
type Engine struct {
	*dcf.Engine

	k   *sim.Kernel
	g   *topo.ConflictGraph
	cfg Config
	aps map[phy.NodeID]*ap

	// Scheduling state.
	downlinks []*topo.Link
	batch     strict.Batcher
	epochSeq  int
	awaiting  map[phy.NodeID]bool // APs whose epoch-completion report is due

	// Observability (nil without WireObs): typed epoch records and causal
	// spans tying scheduled downlinks to the epoch that planned them. Obs
	// shadows the stations' tracer, which stays nil: CENTAUR traces carry
	// no backoff or ACK-timeout records.
	Obs obs.Tracer
	sp  *obs.Spans

	Epochs int
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
// scheduled, uplinks contend. The stations run at the 802.11g timing with
// ACKs at the data rate.
func New(k *sim.Kernel, medium *phy.Medium, g *topo.ConflictGraph, events mac.Events, cfg Config) *Engine {
	e := &Engine{
		Engine: dcf.New(k, medium, g.Links, events, dcf.Config{
			SlotTime: phy.SlotTime, SIFS: phy.SIFS, DIFS: phy.DIFS,
			CWMin: cfg.CWMin, CWMax: cfg.CWMax,
			Rate: cfg.Rate, AckRate: cfg.Rate, QueueCap: cfg.QueueCap,
		}),
		k: k, g: g, cfg: cfg,
		aps:      map[phy.NodeID]*ap{},
		awaiting: map[phy.NodeID]bool{},
		// The central scheduler sees the full graph's adjacency; only
		// downlinks ever carry quota.
		batch: strict.Batcher{S: strict.NewRAND(g)},
	}
	for _, l := range g.Links {
		if !l.Downlink {
			continue
		}
		e.downlinks = append(e.downlinks, l)
		e.Hold(l)
		if e.aps[l.Sender] == nil {
			a := &ap{e: e, id: l.Sender}
			a.releaseFn, a.advanceFn = a.release, a.advance
			a.reportFn = func() { e.epochDone(a.id) }
			e.aps[l.Sender] = a
		}
	}
	return e
}

// Start implements mac.Engine.
func (e *Engine) Start() { e.k.After(0, e.buildEpoch).SetSource(sim.SrcMAC) }

// buildEpoch computes rounds for the backlogged downlinks and dispatches
// per-AP schedules over the wire.
func (e *Engine) buildEpoch() {
	e.Epochs++
	e.epochSeq++
	quota := make([]int, len(e.g.Links))
	anything := false
	for _, l := range e.downlinks {
		q := e.QueueLen(l.ID)
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
		e.k.After(e.cfg.roundDuration(), e.buildEpoch).SetSource(sim.SrcMAC)
		return
	}
	rounds := e.batch.Batch(quota, len(e.downlinks)*e.cfg.EpochQuota)
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
		a := e.aps[apID]
		items := perAP[apID]
		lat := e.wireLatency()
		e.k.After(lat, func() { a.receiveEpoch(items) }).SetSource(sim.SrcMAC)
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

// ap is one AP's share of the current epoch: its scheduled downlinks,
// released in order, each at its wall-clock gate.
type ap struct {
	e  *Engine
	id phy.NodeID

	epoch      []epochItem
	epochStart sim.Time
	epochIdx   int

	// The AP's timers and its station's completion hook, bound once in New
	// so arming one allocates nothing.
	releaseFn, advanceFn, reportFn func()
}

// receiveEpoch installs a new downlink schedule (wire arrival).
func (a *ap) receiveEpoch(items []epochItem) {
	a.epoch = items
	a.epochStart = a.e.k.Now()
	a.epochIdx = 0
	a.serveEpoch()
}

// serveEpoch arms the release of the next scheduled item at its gate, or,
// once every item is served, sends the completion report over the wire.
func (a *ap) serveEpoch() {
	if a.epochIdx >= len(a.epoch) {
		if len(a.epoch) > 0 {
			a.epoch = nil
			a.e.k.After(a.e.wireLatency(), a.reportFn).SetSource(sim.SrcMAC)
		}
		return
	}
	wait := a.epochStart + a.epoch[a.epochIdx].releaseOffset - a.e.k.Now()
	if wait < 0 {
		wait = 0
	}
	a.e.k.After(wait, a.releaseFn).SetSource(sim.SrcMAC)
}

// release hands the due item to the AP's station as a fixed-backoff send
// riding the epoch's span, so the trace shows which epoch put the packet on
// the air. An item whose queue drained (the scheduler over-estimated) is
// skipped.
func (a *ap) release() {
	item := a.epoch[a.epochIdx]
	if !a.e.SendFixed(item.link, a.e.cfg.FixedBackoffSlots, item.span, a.advanceFn) {
		a.advance()
	}
}

// advance moves to the next item once the station delivered or dropped the
// current one.
func (a *ap) advance() {
	a.epochIdx++
	a.serveEpoch()
}
