package domino

import (
	"fmt"
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
// Its slot log keeps only the slots some AP can still read (log), so a run
// holds constant memory however long it lasts.
type Engine struct {
	k      *sim.Kernel
	medium *phy.Medium
	g      *topo.ConflictGraph
	net    *topo.Network
	events mac.Events
	cfg    Config
	dur    durations

	queues []*mac.Queue
	intake mac.Intake
	// log is a window over the global slot sequence, which grows by one
	// batch per build: log[i] is global slot base+i, and end() =
	// base+len(log) is the running total Slots reports. Global indices are
	// what frames, payloads and trace records carry; only the storage
	// slides. Every read goes through slot, which panics below base.
	//
	// slide raises base, once per build, to the lowest index any AP can
	// still read, the minimum over APs of:
	//   - known: receiveSchedule reads on from it. Dispatches can overtake
	//     each other on the wire, but known never goes back: a dispatch that
	//     arrives after a later batch's adds nothing, and one still on the
	//     wire reads only slots from known on;
	//   - every pending action, every armed transmission not yet fired and
	//     every send a deferred arm call (checkPollSelf) will arm
	//     (radio.armedSlots): send, scheduleSelfArm and doPoll read its slot;
	//   - ptr−3 once the AP has acted (ptr > 0): findSlotFor searches
	//     forward from ptr and back to ptr−3, and send and onSlot read their
	//     slot (ptr−1 or later) after noteProgress, which may build;
	//   - for an AP that has never acted (ptr == 0), the first slot with an
	//     entry it receives: findSlotFor's search from slot 0 can return no
	//     earlier slot, so that AP does not pin base at 0. The slots it
	//     skips carry nothing the AP receives, so findSlotFor clamps its
	//     searches at base and still finds what a full log would.
	// and never past the last slot, whose offset the next batch continues.
	// Nothing else reads the log later: an AP keeps the offset of its last
	// reference (lastOffset), and deferred calls copy what they need of
	// their slot when scheduled (the poll its offset, a broadcast its
	// targets and gap inputs). Clients read no slot; their instructions
	// ride on frames, and a client copies them out of the frame.
	// Only the batch being executed and the one queued behind it stay, so a
	// saturated run holds the window at a constant length.
	//
	// The slots slide drops are recycled: buildAndDispatch hands them to
	// the converter (ConvertPlan's reuse), whose next slots take over their
	// entries, triggers, broadcasts and poll lists. That is safe because
	// nothing keeps a slice of a slot past the call that read it: every
	// instruction set or broadcast list a node keeps is a copy in the
	// node's own storage (instr.set, apCall.targets).
	log  []loggedSlot
	base int
	// dead holds the slots the latest slide dropped.
	dead    []*convert.RelSlot
	aps     map[phy.NodeID]*apNode
	clients map[phy.NodeID]*clientNode
	server  *server
	// maxExec tracks execution progress (highest slot index observed); the
	// server pipelines the next batch when execution nears the end of the
	// known schedule.
	maxExec      int
	buildPending bool

	// Misalign records the transmission spread of the first misalignSlots
	// slots (Fig 11).
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
	// convMetrics holds the conversion-pipeline counters once WireObs
	// installed a registry; nil means no metrics accounting at all.
	convMetrics *convertMetrics
	// onPlan, when non-nil, sees every plan the converter emits before the
	// engine uses it. Only this package's tests set it (to run
	// convert.Verify on each plan); no config or spec reaches it.
	onPlan func(*convert.Plan)

	// clientBacklogFn is clientBacklog bound once: every poll reads it.
	clientBacklogFn func(phy.NodeID) int

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

// loggedSlot is one slot of the engine's log: the converted slot, its
// nominal start relative to the chain origin (slot durations plus ROP and
// CoP gaps; APs free-run on it between triggers), and the global index of
// the last slot of its batch (the NAV's CFP end when CoP is on).
type loggedSlot struct {
	*convert.RelSlot
	offset   sim.Time
	batchEnd int
}

// end is the global index one past the newest slot: every slot scheduled so
// far.
func (e *Engine) end() int { return e.base + len(e.log) }

// slot returns global slot idx of the log. It panics on an index that slid
// out of the window, which would mean the floor in log's comment is wrong.
func (e *Engine) slot(idx int) loggedSlot {
	if idx < e.base {
		e.belowWindow(idx)
	}
	return e.log[idx-e.base]
}

func (e *Engine) belowWindow(idx int) {
	panic(fmt.Sprintf("domino: slot %d read below the log window [%d, %d)", idx, e.base, e.end()))
}

// slide drops the slots no AP can read again (the floor in log's comment),
// compacting the log in place, and returns them for the converter to reuse
// their storage (in a buffer the next slide reuses).
func (e *Engine) slide() []*convert.RelSlot {
	dead := e.dead[:0]
	if len(e.log) == 0 {
		return dead
	}
	floor := e.end() - 1
	for _, id := range e.net.APs {
		floor = min(floor, e.aps[id].floor())
	}
	if d := floor - e.base; d > 0 {
		for _, s := range e.log[:d] {
			if scribbleRecycled {
				scribbleSlot(s.RelSlot)
			}
			dead = append(dead, s.RelSlot)
		}
		n := copy(e.log, e.log[d:])
		clear(e.log[n:])
		e.log, e.base = e.log[:n], floor
	}
	e.dead = dead
	return dead
}

// firstReceivable returns the first slot in [base, limit) with an entry
// that node receives, or limit.
func (e *Engine) firstReceivable(node phy.NodeID, limit int) int {
	for idx := e.base; idx < limit; idx++ {
		for _, en := range e.slot(idx).Entries {
			if en.Link.Receiver == node {
				return idx
			}
		}
	}
	return limit
}

// pollGap is the air time every schedule reserves for one complete polling
// cycle: the per-round ROP slot times the engine-wide round count. With the
// default single-round ROP this is exactly the classic ROP slot.
func (e *Engine) pollGap() sim.Time {
	return sim.Time(e.pollRounds) * e.dur.ropSlot
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

// instr is the S1 instruction set (Fig 8) for a slot's client endpoint. It
// rides on a downlink data or fake-header frame, or on the AP's ACK of an
// uplink. slot is the slot's index; clientSigs are the signatures the
// client broadcasts at the slot's end, with the ROP flag rop. selfNext
// tells the client it sends in the next slot, so the end of this slot's
// boundary exchange is its transmit reference; nextWait is how long past
// the boundary it must hold off (ROP or CoP gap).
type instr struct {
	slot       int
	clientSigs []phy.NodeID
	rop        bool
	selfNext   bool
	nextWait   sim.Time
}

// instrInto sets *dst to client's instructions for slot idx, copying the
// signatures into dst's own storage.
func (e *Engine) instrInto(dst *instr, client phy.NodeID, idx int) {
	slot := e.slot(idx)
	dst.slot = idx
	dst.clientSigs = append(dst.clientSigs[:0], lookupBcast(slot.RelSlot, client)...)
	dst.rop = len(slot.ROPAfter) > 0
	dst.selfNext = e.clientSenderInSlot(client, idx+1)
	dst.nextWait = e.gapAfter(idx)
}

// set copies in into dst, the signatures into dst's own storage. Every
// instr a node keeps past the call that computed or received it owns its
// signature list this way, so none aliases a slot of the log, whose
// storage the converter recycles, or a frame's payload, which its sender
// reuses.
func (dst *instr) set(in *instr) {
	sigs := append(dst.clientSigs[:0], in.clientSigs...)
	*dst = *in
	dst.clientSigs = sigs
}

// meta rides on data and fake-header frames: the client endpoint's
// instructions (zero on a client's own frames) and the slot identity.
// The bundle of MAC packets aggregated into a data slot's virtual packet
// (§3.5: splitting/aggregation makes every transmission take the fixed
// virtual air time; several small packets — TCP ACKs in particular — share
// one slot) stays with its sender; the frame names it by its head packet's
// handle (phy.Frame.Handle), which the ACK echoes.
type meta struct {
	instr
	// span/depth carry the slot's causal span and the sender's trigger-chain
	// depth to the receiver, so its follow-on duties parent correctly.
	span  int64
	depth int
	// backlog piggybacks the sender's remaining queue length; the AP reads
	// it from a client's data frame (only meaningful with Config.Piggyback).
	backlog int
}

// scribbledSlot is the slot index recycled storage holds while
// scribbleRecycled is set: far below any log window, so a read through it
// panics (Engine.slot).
const scribbledSlot = -1 << 30

// scribbleRecycled makes storage the engine recycles unusable the moment
// it is released: armed transmissions and deferred-call records once run or
// cancelled, ACK entries once sent, the slots slide drops before the
// converter reuses them, and a received frame's meta or instructions once
// the receiver's FrameReceived returns (the sender reuses them for its next
// frame). A run must compute the same with it set; only this package's
// tests set it.
var scribbleRecycled bool

// scribble overwrites in with values no valid instruction holds, keeping
// the length of its signature list.
func (in *instr) scribble() {
	for i := range in.clientSigs {
		in.clientSigs[i] = -1
	}
	in.slot, in.rop, in.selfNext, in.nextWait = scribbledSlot, !in.rop, !in.selfNext, -1
}

// scribble overwrites m as instr.scribble does.
func (m *meta) scribble() {
	m.instr.scribble()
	m.span, m.depth, m.backlog = -1, -1, -1
}

// scribbleSlot overwrites a slot slide dropped: every link nil, every node
// -1, keeping the lengths.
func scribbleSlot(s *convert.RelSlot) {
	for i := range s.Entries {
		en := &s.Entries[i]
		en.Link, en.Fake = nil, !en.Fake
		for j := range en.TriggeredBy {
			en.TriggeredBy[j] = -1
		}
	}
	for i := range s.Broadcasts {
		b := &s.Broadcasts[i]
		b.From = -1
		for j := range b.Targets {
			b.Targets[j] = -1
		}
	}
	for i := range s.ROPAfter {
		s.ROPAfter[i] = -1
	}
}

// New assembles a DOMINO engine over a conflict graph. Both endpoints of
// every link register on the medium.
func New(k *sim.Kernel, medium *phy.Medium, g *topo.ConflictGraph, events mac.Events, cfg Config) *Engine {
	if events == nil {
		events = mac.NopEvents{}
	}
	e := &Engine{
		k: k, medium: medium, g: g, net: g.Net, events: events, cfg: cfg, dur: cfg.durations(),
		Misalign: stats.NewMisalignment(misalignSlots),
		aps:      map[phy.NodeID]*apNode{},
		clients:  map[phy.NodeID]*clientNode{},
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
		ap.poller, ap.polled, ap.rssAtAP = p, len(clients), rssFn
	}
	e.clientBacklogFn = e.clientBacklog
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

// ensureNode creates node id's AP or client and registers it on the medium.
// A DOMINO node reads only the frames addressed to it and signatures, so it
// overhears no frame kind.
func (e *Engine) ensureNode(id phy.NodeID) {
	if e.net.IsAP[id] {
		if _, ok := e.aps[id]; !ok {
			ap := &apNode{}
			ap.init(e, id, ap)
			ap.onWatchdog = ap.watchdogFired
			e.aps[id] = ap
			e.medium.Register(id, ap, phy.Kinds())
		}
		return
	}
	if _, ok := e.clients[id]; !ok {
		c := &clientNode{}
		c.init(e, id, c)
		for _, l := range e.g.Links {
			if l.Sender == id {
				c.link = l
			}
		}
		e.clients[id] = c
		e.medium.Register(id, c, phy.Kinds())
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
func (e *Engine) Slots() int { return e.end() }

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
	batch strict.Batcher
	conv  *convert.Converter
	upEst []int
	// est is buildAndDispatch's backlog estimate, reused batch to batch.
	est []int
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
		e:     e,
		batch: strict.Batcher{S: sched},
		conv:  conv,
		upEst: make([]int, len(e.g.Links)),
		est:   make([]int, len(e.g.Links)),
	}
	s.buildFn = s.buildAndDispatch
	return s
}

// buildAndDispatch computes the next batch from current queue knowledge,
// converts it, appends it to the global slot sequence and ships it to every
// AP over the wired backbone.
func (s *server) buildAndDispatch() {
	e := s.e
	est := s.est
	clear(est)
	for _, l := range e.g.Links {
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
	batch := s.batch.Batch(est, size)
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
		e.k.After(e.dur.slot, s.buildFn).SetSource(sim.SrcMAC)
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
	// Slide before converting: the conversion changes nothing the floor
	// reads (it adds slots and fills the retained last slot's broadcasts),
	// and reuses the storage of the slots slide drops.
	plan := s.conv.ConvertPlan(batch, pollAPs, e.slide()...)
	if e.onPlan != nil {
		e.onPlan(plan)
	}

	first := len(e.log)
	ropSlots := 0
	for i := range plan.Slots {
		var offset sim.Time
		if n := len(e.log); n > 0 {
			prev := e.log[n-1]
			offset = prev.offset + e.dur.slot
			if len(prev.ROPAfter) > 0 {
				offset += e.pollGap()
			}
			if i == 0 {
				offset += e.cfg.CoPDuration
			}
		}
		e.log = append(e.log, loggedSlot{RelSlot: &plan.Slots[i], offset: offset})
		if len(plan.Slots[i].ROPAfter) > 0 {
			ropSlots++
		}
	}
	newKnown := e.end()
	for i := first; i < len(e.log); i++ {
		e.log[i].batchEnd = newKnown - 1
	}
	e.noteConvert(plan)

	// Wired dispatch with jitter.
	for _, apID := range e.net.APs {
		ap := e.aps[apID]
		ap.later(e.wiredDelay(), (*apCall).receive).slot = newKnown
	}
	e.buildPending = false

	// Liveness fallback: execution normally pipelines the next batch via
	// noteProgress, but if every chain stalls (or the tail of this batch has
	// no executable entries) the server must still move forward.
	nominal := sim.Time(len(plan.Slots))*e.dur.slot +
		sim.Time(ropSlots)*e.pollGap()
	e.k.After(2*nominal+10*e.dur.slot, func() {
		if e.end() == newKnown && !e.buildPending {
			e.buildPending = true
			s.buildAndDispatch()
		}
	}).SetSource(sim.SrcMAC)
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
	if !e.buildPending && e.end()-e.maxExec <= 3 {
		e.buildPending = true
		e.server.buildAndDispatch()
	}
}

// wiredDelay draws one trip over the wired backbone: WiredLatencyMean plus
// normal jitter of WiredLatencyStd, clamped at zero.
func (e *Engine) wiredDelay() sim.Time {
	lat := e.cfg.WiredLatencyMean +
		sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
	return max(lat, 0)
}

// ingest takes the backlog of every decoded report as the server's
// estimate of its client's uplink.
func (s *server) ingest(reports []poll.Report) {
	for _, r := range reports {
		if cn, ok := s.e.clients[r.Client]; ok && r.OK && cn.link != nil {
			s.upEst[cn.link.ID] = r.Value
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
	s := e.slot(idx)
	return e.gap(idx, len(s.ROPAfter) > 0, s.batchEnd == idx)
}

// gap is gapAfter(idx) from the slot's own facts: whether polling follows
// it (rop) and whether it ends its batch (batchLast). The CoP counts only
// once the next batch is known, as the next slot's offset includes it.
func (e *Engine) gap(idx int, rop, batchLast bool) sim.Time {
	var g sim.Time
	if rop {
		g = e.pollGap()
	}
	if batchLast && idx+1 < e.end() {
		g += e.cfg.CoPDuration
	}
	return g
}

// navUntil returns the absolute NAV a data frame sent now in slot idx should
// carry: the end of its batch's contention-free period (zero when CoP is
// off, i.e. no extra reservation beyond the exchange).
func (e *Engine) navUntil(idx int, slotStart sim.Time) sim.Time {
	if e.cfg.CoPDuration <= 0 {
		return 0
	}
	s := e.slot(idx)
	return slotStart + (e.slot(s.batchEnd).offset - s.offset) + e.dur.slot
}

// clientSenderInSlot reports whether the client sends in the given slot (for
// the selfNext instruction).
func (e *Engine) clientSenderInSlot(client phy.NodeID, idx int) bool {
	if idx >= e.end() {
		return false
	}
	for _, en := range e.slot(idx).Entries {
		if en.Link.Sender == client {
			return true
		}
	}
	return false
}
