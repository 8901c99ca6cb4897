package domino

import (
	"sort"

	"repro/internal/convert"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strict"
	"repro/internal/topo"
)

// Engine is a complete DOMINO deployment: central server, APs, clients.
type Engine struct {
	k      *sim.Kernel
	medium *phy.Medium
	g      *topo.ConflictGraph
	net    *topo.Network
	events mac.Events
	cfg    Config

	queues []*mac.Queue
	intake mac.Intake
	slots  []*convert.RelSlot // global slot sequence, appended per batch
	// slotOffset[i] is slot i's nominal start relative to the chain origin
	// (slot durations plus ROP and CoP gaps); APs free-run on it between
	// triggers.
	slotOffset []sim.Time
	// batchEnd[i] is the last slot index of the batch containing slot i,
	// used to stamp the NAV (CFP end) into data frames when CoP is on.
	batchEnd []int
	aps      map[phy.NodeID]*apNode
	clients  map[phy.NodeID]*clientNode
	server   *server
	// maxExec tracks execution progress (highest slot index observed); the
	// server pipelines the next batch when execution nears the end of the
	// known schedule.
	maxExec      int
	buildPending bool

	// Misalign records per-slot transmission spread when configured (Fig 11).
	Misalign *stats.Misalignment
	// refGroup maps each node to its trigger-connectivity component: nodes
	// in different components share no reference chain, so misalignment is
	// only compared within a component.
	refGroup []int
	// Obs, when non-nil, receives the typed slot timeline (slot_start for
	// data/fake sends, slot_end for boundary broadcasts, trigger and
	// trigger_miss for signature outcomes) plus the poller's per-client
	// records. The nil default costs one branch per emission site.
	Obs obs.Tracer
	// life is the per-run packet-lifecycle sink (enqueue/dequeue stamps and
	// span assignment) and sp the causal span allocator; both nil unless
	// WireObs ran, and every use guards with one nil check.
	life *obs.Run
	sp   *obs.Spans
	// chainDepth histograms trigger-cascade depth when metrics are wired.
	chainDepth *obs.LogHist
	// convMetrics holds the conversion-pipeline counters once WireMetrics
	// installed a registry; nil means no metrics accounting at all.
	convMetrics *convertMetrics
	// onPlan, when non-nil, sees every plan the converter emits before the
	// engine uses it. Only this package's tests set it (to run
	// convert.Verify on each plan); no config or spec reaches it.
	onPlan func(*convert.Plan)

	// pollRounds is the engine-wide poll-gap multiplier: the maximum Rounds()
	// over every AP's poller (≥ 1). Every reserved poll boundary spans
	// pollRounds × the ROP slot duration so all APs agree on slot offsets.
	pollRounds int
	// UnpolledClients lists clients left out of polling because their AP had
	// more clients than its poller supports (Descriptor.MaxClients); the
	// strongest clients by RSS were kept. The paper's ROP caps at 24; A2P and
	// UORA are unbounded. Replaces the former hard panic.
	UnpolledClients []phy.NodeID

	// Counters.
	DataSends  int
	FakeSends  int
	Polls      int
	SelfStarts int
	Drops      int
	AckMisses  int
	// TriggerMisses counts signature broadcasts carrying a node's ID that
	// the node failed to detect; TriggerLate counts triggers discarded
	// because a transmission was already armed from an earlier reference;
	// FalseTriggers counts correlator false positives (phy
	// Config.FalsePositiveRate) acted upon.
	TriggerMisses int
	TriggerLate   int
	FalseTriggers int
	// Poller outcome counters: rounds and random-access collisions across all
	// polling cycles, and how many per-client reports decoded vs failed.
	PollRounds     int
	PollCollisions int
	PollDecoded    int
	PollFailed     int
}

// pollGap is the air time every schedule reserves for one complete polling
// cycle: the per-round ROP slot times the engine-wide round count. With the
// default single-round ROP this is exactly the classic ROP slot.
func (e *Engine) pollGap() sim.Time {
	return sim.Time(e.pollRounds) * e.cfg.ropSlotDuration()
}

// falseTrigger rolls the correlator's false-positive dice for a signature
// frame that did NOT carry this node's ID.
func (e *Engine) falseTrigger() bool {
	p := e.medium.Config().FalsePositiveRate
	if p <= 0 {
		return false
	}
	if e.k.Rand().Float64() < p {
		e.FalseTriggers++
		return true
	}
	return false
}

// meta rides on data and fake-header frames: the signature-broadcast
// instructions for the client endpoint (S1 of Fig 8) and the slot identity.
// The bundle of MAC packets aggregated into a data slot's virtual packet
// (§3.5: splitting/aggregation makes every transmission take the fixed
// virtual air time; several small packets — TCP ACKs in particular — share
// one slot) stays with its sender; the frame names it by its head packet's
// handle (phy.Frame.Handle), which the ACK echoes.
type meta struct {
	slot       int
	clientSigs []phy.NodeID
	rop        bool
	// span/depth carry the slot's causal span and the sender's trigger-chain
	// depth to the receiver, so its follow-on duties parent correctly.
	span  int64
	depth int
	// selfNext tells the receiving client it is the next slot's sender, so
	// the end of this slot's boundary exchange is its transmit reference;
	// nextWait is how long past the boundary it must hold off (ROP or CoP
	// gap).
	selfNext bool
	nextWait sim.Time
	// backlog piggybacks the client's remaining uplink queue length on
	// frames it sends (only meaningful with Config.Piggyback).
	backlog int
}

// ackMeta rides on an AP's ACK of an uplink: the client's broadcast
// instructions (Fig 8b). Which bundle is acknowledged rides in the frame's
// Handle.
type ackMeta struct {
	slot       int
	clientSigs []phy.NodeID
	rop        bool
	selfNext   bool
	nextWait   sim.Time
}

// New assembles a DOMINO engine over a conflict graph. Both endpoints of
// every link register on the medium.
func New(k *sim.Kernel, medium *phy.Medium, g *topo.ConflictGraph, events mac.Events, cfg Config) *Engine {
	if events == nil {
		events = mac.NopEvents{}
	}
	e := &Engine{
		k: k, medium: medium, g: g, net: g.Net, events: events, cfg: cfg,
		aps:     map[phy.NodeID]*apNode{},
		clients: map[phy.NodeID]*clientNode{},
	}
	if cfg.MisalignSlots > 0 {
		e.Misalign = stats.NewMisalignment(cfg.MisalignSlots)
	}
	e.queues = make([]*mac.Queue, len(g.Links))
	for _, l := range g.Links {
		e.queues[l.ID] = mac.NewQueue(cfg.QueueCap)
	}
	for _, l := range g.Links {
		e.ensureNode(l.Sender)
		e.ensureNode(l.Receiver)
	}
	if err := cfg.fits(g.Net.NumNodes()); err != nil {
		panic("domino: " + err.Error())
	}
	// Poller instances per AP (internal/poll registry; default ROP). The AP
	// slice is iterated in network order so UnpolledClients is deterministic.
	pd, err := poll.Registry.Resolve(cfg.Poller)
	if err != nil {
		panic("domino: " + err.Error())
	}
	e.pollRounds = 1
	for _, apID := range e.net.APs {
		ap, here := e.aps[apID]
		if !here {
			continue
		}
		apID := apID
		rssFn := func(c phy.NodeID) float64 { return e.net.RSS[c][apID] }
		clients := e.net.Clients(apID)
		if pd.MaxClients > 0 && len(clients) > pd.MaxClients {
			// More clients than the poller's layout supports: keep the
			// strongest MaxClients and surface the rest instead of panicking
			// (the former behaviour). Callers report Engine.UnpolledClients
			// alongside SkippedLinks.
			sorted := append([]phy.NodeID(nil), clients...)
			sort.SliceStable(sorted, func(a, b int) bool {
				return rssFn(sorted[a]) > rssFn(sorted[b])
			})
			clients = sorted[:pd.MaxClients]
			e.UnpolledClients = append(e.UnpolledClients, sorted[pd.MaxClients:]...)
		}
		p, err := poll.Build(pd.Name, cfg.PollerConfig)
		if err != nil {
			panic("domino: " + err.Error())
		}
		p.Assign(clients, rssFn)
		if r := p.Rounds(); r > e.pollRounds {
			e.pollRounds = r
		}
		ap.poller = p
	}
	e.server = newServer(e)
	e.refGroup = triggerComponents(g.Net)
	return e
}

// triggerComponents labels nodes by connected component of the "a signature
// from a reaches b" graph.
func triggerComponents(net *topo.Network) []int {
	n := net.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		comp[start] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for u := 0; u < n; u++ {
				if comp[u] == -1 &&
					(net.RSS[v][u] >= topo.TriggerFloorDBm || net.RSS[u][v] >= topo.TriggerFloorDBm) {
					comp[u] = next
					stack = append(stack, u)
				}
			}
		}
		next++
	}
	return comp
}

func (e *Engine) ensureNode(id phy.NodeID) {
	if e.net.IsAP[id] {
		if _, ok := e.aps[id]; !ok {
			ap := &apNode{e: e, id: id}
			ap.onWatchdog = ap.watchdogFired
			ap.onAckTimeout = ap.ackTimeout
			e.aps[id] = ap
			e.medium.Register(id, ap)
		}
		return
	}
	if _, ok := e.clients[id]; !ok {
		c := &clientNode{e: e, id: id, ap: e.net.APOf[id]}
		c.onAckTimeout = c.ackTimeout
		for _, l := range e.g.Links {
			if l.Sender == id {
				c.uplink = l
			}
		}
		e.clients[id] = c
		e.medium.Register(id, c)
	}
}

// Start implements mac.Engine: the server computes and dispatches the first
// batch.
func (e *Engine) Start() {
	e.k.After(0, e.server.buildFn).SetSource(sim.SrcMAC)
}

// Enqueue implements mac.Engine.
func (e *Engine) Enqueue(p mac.Packet) bool {
	stored := e.intake.Admit(e.queues[p.Link], &p, e.events, e.k.Now())
	if stored == nil {
		return false
	}
	if e.life != nil {
		e.life.PacketQueued(stored, e.k.Now())
	}
	return true
}

// QueueLen implements mac.Engine.
func (e *Engine) QueueLen(link int) int { return e.queues[link].Len() }

// Slots exposes how many global slots have been scheduled so far.
func (e *Engine) Slots() int { return len(e.slots) }

// DebugScheduleStats summarises the built schedule: total entries, slots,
// ROP boundaries and entries without triggers (tests and diagnostics).
func (e *Engine) DebugScheduleStats() (entries, slots, ropSlots, untriggered int) {
	slots = len(e.slots)
	for _, sl := range e.slots {
		entries += len(sl.Entries)
		if len(sl.ROPAfter) > 0 {
			ropSlots++
		}
		for _, en := range sl.Entries {
			if len(en.TriggeredBy) == 0 {
				untriggered++
			}
		}
	}
	return
}

// emitSlotStart records a slot owner starting its data ("data") or fake
// header ("fake") transmission on link.
func (e *Engine) emitSlotStart(kind string, node phy.NodeID, link *topo.Link, slot int, span, parent int64) {
	if e.Obs == nil {
		return
	}
	rec := obs.Rec(e.k.Now(), obs.KindSlotStart)
	rec.Node = int(node)
	rec.Link = link.ID
	rec.Slot = slot
	rec.Aux = kind
	rec.OK = true
	rec.Span = span
	rec.Parent = parent
	e.Obs.Emit(rec)
}

// emitSlotEnd records the boundary broadcast that closes slot.
func (e *Engine) emitSlotEnd(node phy.NodeID, slot int, span, parent int64) {
	if e.Obs == nil {
		return
	}
	rec := obs.Rec(e.k.Now(), obs.KindSlotEnd)
	rec.Node = int(node)
	rec.Slot = slot
	rec.OK = true
	rec.Span = span
	rec.Parent = parent
	e.Obs.Emit(rec)
}

// noteTrigger accounts one detected own-signature trigger: it allocates the
// trigger's span (parented to the broadcast that carried it), histograms the
// cascade depth, and emits the trigger record. Returns the new reference span
// and depth for the node to adopt.
func (e *Engine) noteTrigger(node phy.NodeID, pl *phy.SignaturePayload) (span int64, depth int) {
	depth = pl.ObsDepth + 1
	if e.sp != nil {
		span = e.sp.Next()
	}
	if e.chainDepth != nil {
		e.chainDepth.Record(int64(depth))
	}
	if e.Obs != nil {
		rec := obs.Rec(e.k.Now(), obs.KindTrigger)
		rec.Node = int(node)
		rec.Slot = pl.SlotHint
		rec.OK = true
		rec.Span = span
		rec.Parent = pl.ObsSpan
		rec.Value = int64(depth)
		e.Obs.Emit(rec)
	}
	return span, depth
}

// triggerMiss records a failed own-signature detection: the broadcast carried
// the node's ID but the correlator (SINR model) missed it.
func (e *Engine) triggerMiss(id phy.NodeID, slotHint int) {
	e.TriggerMisses++
	if e.Obs != nil {
		rec := obs.Rec(e.k.Now(), obs.KindTriggerMiss)
		rec.Node = int(id)
		rec.Slot = slotHint
		e.Obs.Emit(rec)
	}
}

// EnableQueueSampling installs a per-link backlog observer on every queue
// (typically obs.Run.QueueSampler()). Call before traffic starts.
func (e *Engine) EnableQueueSampling(fn func(link, depth int)) {
	for id, q := range e.queues {
		id := id
		q.OnDepth = func(depth int) { fn(id, depth) }
	}
}

// ----------------------------------------------------------------------------
// Central server

type server struct {
	e     *Engine
	sched strict.Scheduler
	conv  *convert.Converter
	upEst []int
	// sleeping tracks clients the server has scheduled to sleep; their
	// links are excluded from batches until they wake.
	sleeping map[phy.NodeID]bool
	// buildFn is buildAndDispatch bound once, so re-arming the idle retry
	// allocates no method value.
	buildFn func()
}

func newServer(e *Engine) *server {
	conv := convert.New(e.g)
	conv.MaxInbound = e.cfg.MaxInbound
	conv.DisableFakeCover = e.cfg.NoFakeCover
	sched, err := strict.BuildScheduler(e.cfg.Scheduler, e.g)
	if err != nil {
		panic("domino: " + err.Error())
	}
	s := &server{
		e:        e,
		sched:    sched,
		conv:     conv,
		upEst:    make([]int, len(e.g.Links)),
		sleeping: map[phy.NodeID]bool{},
	}
	s.buildFn = s.buildAndDispatch
	return s
}

// buildAndDispatch computes the next batch from current queue knowledge,
// converts it, appends it to the global slot sequence and ships it to every
// AP over the wired backbone.
func (s *server) buildAndDispatch() {
	e := s.e
	est := make([]int, len(e.g.Links))
	for _, l := range e.g.Links {
		if !s.linkSchedulable(l.ID) {
			continue // endpoint asleep: no air time for this link
		}
		if l.Downlink {
			// AP queues are visible over the wire.
			est[l.ID] = e.queues[l.ID].Len()
		} else {
			est[l.ID] = s.upEst[l.ID]
		}
	}
	size := e.cfg.BatchSize
	if e.cfg.AdaptiveBatch {
		total := 0
		for _, v := range est {
			total += v
		}
		size = total + 2
		if size < minAdaptiveBatch {
			size = minAdaptiveBatch
		}
		if size > e.cfg.BatchSize {
			size = e.cfg.BatchSize
		}
	}
	batch := s.sched.Batch(est, size)
	// Pad to the full batch size with empty strict slots: the converter's
	// fake cover keeps the trigger chain and polling alive even when idle.
	// (Without the cover — ablation — padded slots would be dead air.)
	if !e.cfg.NoFakeCover {
		for len(batch) < size {
			batch = append(batch, strict.Slot{})
		}
	}
	if len(batch) == 0 {
		// Nothing to schedule at all: check again after one slot.
		e.k.After(e.cfg.slotDuration(), s.buildFn)
		return
	}
	// Scheduled uplink transmissions consume the polled estimates.
	for _, slot := range batch {
		for _, id := range slot {
			if !e.g.Links[id].Downlink && s.upEst[id] > 0 {
				s.upEst[id]--
			}
		}
	}
	if e.cfg.CoPDuration > 0 {
		// The contention period separates batches: no trigger chain crosses
		// it (external traffic owns the gap); the batch's first slot is
		// free-run from the APs' local clocks.
		s.conv.Reset()
	}
	pollAPs := e.net.APs
	if e.cfg.Piggyback {
		pollAPs = nil // no ROP slots: queue state arrives only by piggyback
	}
	plan := s.conv.ConvertPlan(batch, pollAPs)
	if e.onPlan != nil {
		e.onPlan(plan)
	}

	first := len(e.slots)
	ropSlots := 0
	for i := range plan.Slots {
		e.slots = append(e.slots, &plan.Slots[i])
		var last sim.Time
		if n := len(e.slotOffset); n > 0 {
			last = e.slotOffset[n-1] + e.cfg.slotDuration()
			if prev := e.slots[len(e.slots)-2]; len(prev.ROPAfter) > 0 {
				last += e.pollGap()
			}
			if i == 0 {
				last += e.cfg.CoPDuration
			}
		}
		e.slotOffset = append(e.slotOffset, last)
		if len(plan.Slots[i].ROPAfter) > 0 {
			ropSlots++
		}
	}
	newKnown := len(e.slots)
	for i := first; i < newKnown; i++ {
		e.batchEnd = append(e.batchEnd, newKnown-1)
	}
	e.noteConvert(plan)

	// Wired dispatch with jitter.
	for _, apID := range e.net.APs {
		ap := e.aps[apID]
		lat := e.cfg.WiredLatencyMean +
			sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
		if lat < 0 {
			lat = 0
		}
		e.k.After(lat, func() { ap.receiveSchedule(newKnown) })
	}
	e.buildPending = false

	// Liveness fallback: execution normally pipelines the next batch via
	// noteProgress, but if every chain stalls (or the tail of this batch has
	// no executable entries) the server must still move forward.
	snapshot := len(e.slots)
	nominal := sim.Time(len(plan.Slots))*e.cfg.slotDuration() +
		sim.Time(ropSlots)*e.pollGap()
	e.k.After(2*nominal+10*e.cfg.slotDuration(), func() {
		if len(e.slots) == snapshot && !e.buildPending {
			e.buildPending = true
			s.buildAndDispatch()
		}
	})
}

// noteProgress records that execution reached the given slot and pipelines
// the next batch when the known schedule is nearly consumed: the batch must
// be converted (filling the retained slot's broadcasts) before the current
// last slot's end-of-slot triggers fire, but scheduling it any earlier would
// let the schedule run ahead of the air and decouple queue state from what
// actually transmits.
func (e *Engine) noteProgress(idx int) {
	if idx > e.maxExec {
		e.maxExec = idx
	}
	if !e.buildPending && len(e.slots)-e.maxExec <= 3 {
		e.buildPending = true
		e.server.buildAndDispatch()
	}
}

// pollResult integrates a poll outcome after its wired trip to the server.
func (s *server) pollResult(res poll.Result, clientUplink func(phy.NodeID) *topo.Link) {
	for c, v := range res.Values {
		if l := clientUplink(c); l != nil {
			s.upEst[l.ID] = v
		}
	}
}

// popBundle aggregates queued packets into one virtual packet, appending
// them to buf[:0] (the sending node's in-flight buffer): packets are taken
// FIFO while their summed size fits VirtualBytes (a lone oversized packet
// is sent alone — the splitting case simply counts it as one virtual
// packet). An empty queue yields an empty bundle.
func (e *Engine) popBundle(linkID int, buf []mac.Packet) []mac.Packet {
	q := e.queues[linkID]
	bundle := buf[:0]
	total := 0
	for {
		head := q.Peek()
		if head == nil {
			break
		}
		bytes := int(head.Bytes)
		if len(bundle) > 0 && total+bytes > e.cfg.VirtualBytes {
			break
		}
		p, _ := q.Pop()
		bundle = append(bundle, p)
		total += bytes
		if total >= e.cfg.VirtualBytes {
			break
		}
	}
	if e.life != nil {
		now := e.k.Now()
		for i := range bundle {
			e.life.PacketDequeued(&bundle[i], now)
		}
	}
	return bundle
}

// requeueBundle puts a failed bundle back at the head of its queue,
// dropping packets past the retry limit.
func (e *Engine) requeueBundle(linkID int, bundle []mac.Packet) {
	for i := len(bundle) - 1; i >= 0; i-- {
		p := &bundle[i]
		p.Retries++
		if p.Retries > mac.RetryLimit {
			e.Drops++
			e.events.Dropped(p, e.k.Now())
			continue
		}
		e.queues[linkID].PushFront(p)
	}
}

// deliverBundle fires Delivered for every packet of an acknowledged bundle.
func (e *Engine) deliverBundle(bundle []mac.Packet) {
	for i := range bundle {
		e.events.Delivered(&bundle[i], e.k.Now())
	}
}

// gapAfter returns the scheduled gap between the end of slot idx and the
// start of slot idx+1 (zero normally; the ROP slot when polling follows; the
// CoP at batch boundaries).
func (e *Engine) gapAfter(idx int) sim.Time {
	if idx+1 >= len(e.slotOffset) || idx < 0 {
		if idx >= 0 && idx < len(e.slots) && len(e.slots[idx].ROPAfter) > 0 {
			return e.pollGap()
		}
		return 0
	}
	g := e.slotOffset[idx+1] - e.slotOffset[idx] - e.cfg.slotDuration()
	if g < 0 {
		return 0
	}
	return g
}

// navUntil returns the absolute NAV a data frame sent now in slot idx should
// carry: the end of its batch's contention-free period (zero when CoP is
// off, i.e. no extra reservation beyond the exchange).
func (e *Engine) navUntil(idx int, slotStart sim.Time) sim.Time {
	if e.cfg.CoPDuration <= 0 || idx >= len(e.batchEnd) {
		return 0
	}
	end := e.batchEnd[idx]
	return slotStart + (e.slotOffset[end] - e.slotOffset[idx]) + e.cfg.slotDuration()
}

// clientSenderInSlot reports whether the client sends in the given slot (for
// the selfNext instruction).
func (e *Engine) clientSenderInSlot(client phy.NodeID, idx int) bool {
	if idx < 0 || idx >= len(e.slots) {
		return false
	}
	for _, en := range e.slots[idx].Entries {
		if en.Link.Sender == client {
			return true
		}
	}
	return false
}
