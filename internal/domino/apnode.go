// AP-side node logic: schedule reception, trigger handling, slot execution,
// polling, broadcasts and the free-running fallback clock.

package domino

import (
	"slices"

	"repro/internal/convert"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/sim"
	"repro/internal/topo"
)

type actKind int

const (
	aSend actKind = iota
	aPoll
)

// action is one scheduled duty of an AP, executed in order as triggers
// arrive.
type action struct {
	slot int
	kind actKind
	link *topo.Link // for aSend
}

// ----------------------------------------------------------------------------
// Access point

type apNode struct {
	radio
	// poller owns this AP's client → subchannel/round layout and the decode
	// of each polling cycle (internal/poll registry; ROP by default);
	// polled is how many clients it was assigned.
	poller poll.Poller
	polled int

	known int // exclusive upper bound of slots received from the server
	// actions are the pending duties in slot order, popped from the front;
	// actBuf is their buffer from its start.
	actions []action
	actBuf  []action
	started bool
	ptr     int // schedule position: the next slot index expected
	// lastOffset/lastSlotStart record the AP's most recent slot reference
	// (its slot's offset and start), so self-arming can resume when new
	// schedule arrives for duties that were beyond the previously known
	// slots.
	lastOffset    sim.Time
	lastSlotStart sim.Time

	watchdog sim.Event
	// onWatchdog is the watchdog's callback, bound once per node so
	// re-arming the timer allocates no closure.
	onWatchdog func()

	// rssAtAP gives a client's RSS at this AP (the poller's input), bound
	// once in New.
	rssAtAP func(phy.NodeID) float64
	// calls recycles the records of the AP's deferred calls (apCall).
	calls []*apCall
}

// apCall is one deferred call of an AP together with its arguments, so
// scheduling it allocates no closure: fn, bound once when the record is
// made, runs do on the record. do reads the arguments it needs and then
// frees the record, or schedules it again for a follow-up. Each kind of
// call uses the fields its do method documents.
type apCall struct {
	ap *apNode
	do func(*apCall)
	fn func()

	slot      int
	act       action
	t         sim.Time
	span      int64
	targets   []phy.NodeID // in the record's own storage
	rop, last bool
	reports   []poll.Report // in the record's own storage
}

// later schedules do to run after d with a recycled record, which it
// returns for the caller to fill in the arguments.
func (ap *apNode) later(d sim.Time, do func(*apCall)) *apCall {
	c := ap.call(do)
	ap.e.k.After(d, c.fn).SetSource(sim.SrcMAC)
	return c
}

// call takes a record for do from the AP's free list.
func (ap *apNode) call(do func(*apCall)) *apCall {
	var c *apCall
	if n := len(ap.calls) - 1; n >= 0 {
		c = ap.calls[n]
		ap.calls = ap.calls[:n]
	} else {
		c = &apCall{ap: ap}
		c.fn = func() { c.do(c) }
	}
	c.do = do
	return c
}

// free returns the record once its call no longer needs it.
func (c *apCall) free() {
	if scribbleRecycled {
		c.slot, c.act, c.t, c.span, c.rop, c.last = scribbledSlot, action{slot: scribbledSlot}, -1, -1, !c.rop, !c.last
		for i := range c.targets {
			c.targets[i] = -1
		}
		for i := range c.reports {
			c.reports[i] = poll.Report{Client: -1, Subchannel: -1, Value: -1, OK: !c.reports[i].OK}
		}
	}
	c.ap.calls = append(c.ap.calls, c)
}

// receiveSchedule integrates newly arrived slots (wired dispatch callback).
func (ap *apNode) receiveSchedule(newKnown int) {
	e := ap.e
	// Move the pending actions to the front of their buffer, so appending
	// reuses the room the pops from the front left behind.
	ap.actions = append(ap.actBuf[:0], ap.actions...)
	for idx := ap.known; idx < newKnown; idx++ {
		slot := e.slot(idx)
		for _, en := range slot.Entries {
			if en.Link.Sender == ap.id {
				ap.actions = append(ap.actions, action{slot: idx, kind: aSend, link: en.Link})
			}
		}
		for _, p := range slot.ROPAfter {
			if p == ap.id {
				ap.actions = append(ap.actions, action{slot: idx, kind: aPoll})
			}
		}
	}
	ap.actBuf = ap.actions[:0]
	// A dispatch that a later batch's overtook on the wire arrives with
	// fewer slots than the AP knows: it adds nothing.
	ap.known = max(ap.known, newKnown)
	if !ap.started {
		ap.started = true
		ap.bootstrap()
	} else if ap.armed == nil && len(ap.actions) > 0 {
		if ap.ptr == 0 {
			// An AP that has not managed to act yet anchors on the batch
			// arrival itself, as the start of slot 0 (offset 0).
			ap.scheduleSelfArm(0, ap.e.k.Now())
		} else {
			// Duties beyond the previously known schedule could not be
			// self-armed when the AP last acted; re-arm from that reference.
			ap.scheduleSelfArm(ap.lastOffset, ap.lastSlotStart)
		}
	}
	ap.armWatchdog()
}

// receive integrates the schedule up to slot (exclusive) the wired
// dispatch brought (buildAndDispatch).
func (c *apCall) receive() {
	ap, newKnown := c.ap, c.slot
	c.free()
	ap.receiveSchedule(newKnown)
}

// floor is the lowest slot index this AP can still read (Engine.log).
func (ap *apNode) floor() int {
	f := ap.known
	for _, a := range ap.actions {
		f = min(f, a.slot)
	}
	for _, s := range ap.armedSlots {
		f = min(f, s)
	}
	if ap.ptr > 0 {
		return min(f, ap.ptr-3)
	}
	return ap.e.firstReceivable(ap.id, f)
}

// bootstrap starts the very first batch: an AP scheduled in slot 0 begins on
// schedule receipt; an AP whose slot-0 link is an uplink instead triggers the
// client with a signature (paper §3.3, batch connection).
func (ap *apNode) bootstrap() {
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == 0 {
		ap.execNext(0)
		return
	}
	if ap.e.end() == 0 {
		return
	}
	// If the front of the schedule is one of our clients' uplinks, kick the
	// client with a signature (paper §3.3); any pending poll action will be
	// triggered by the slot's end-of-slot broadcast.
	for _, en := range ap.e.slot(0).Entries {
		if !en.Link.Downlink && en.Link.AP == ap.id {
			c := ap.call((*apCall).signature)
			c.slot, c.targets, c.rop, c.last = 0, append(c.targets[:0], en.Link.Sender), false, false
			c.fn()
			return
		}
	}
	// No slot-0 duty: free-run toward the first pending action.
	ap.scheduleSelfArm(0, ap.e.k.Now())
}

// armWatchdog (re)arms the silence timer: if the trigger chain dies, the AP
// self-starts its next action, the same way it started the first batch.
func (ap *apNode) armWatchdog() {
	if ap.watchdog.Scheduled() {
		ap.watchdog.Cancel()
		ap.watchdog = sim.Event{}
	}
	if len(ap.actions) == 0 && ap.armed == nil {
		return
	}
	d := watchdogSlots * ap.e.dur.slot
	ap.watchdog = ap.e.k.After(d, ap.onWatchdog).SetSource(sim.SrcMAC)
}

// watchdogFired self-starts the AP's next action after a silence.
func (ap *apNode) watchdogFired() {
	ap.watchdog = sim.Event{}
	ap.e.SelfStarts++
	// The chain died: this self-start roots a fresh trigger cascade.
	ap.refSpan, ap.depth = 0, 0
	if ap.armed == nil {
		ap.execNext(0)
	}
	ap.armWatchdog()
}

// execNext pops and executes the next pending action; a send is armed delay
// after the current time reference.
func (ap *apNode) execNext(delay sim.Time) {
	if len(ap.actions) == 0 {
		return
	}
	act := ap.actions[0]
	ap.actions = ap.actions[1:]
	switch act.kind {
	case aPoll:
		ap.doPoll(ap.e.slot(act.slot).offset)
		// A poll between slots i and i+1 may be followed immediately by this
		// AP's own transmission in slot i+1, fired by the same trigger.
		if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == act.slot+1 {
			next := ap.actions[0]
			ap.actions = ap.actions[1:]
			ap.arm(next, ap.e.gapAfter(act.slot))
		}
	case aSend:
		ap.arm(act, delay)
	}
}

// onTrigger handles detection of this AP's own signature. The S′ sequence
// doubles as a slot counter (SlotHint), so duties are matched to the slot
// the trigger starts: duties whose slot already passed are skipped, and a
// trigger for an already-armed slot merely refreshes the time reference.
func (ap *apNode) onTrigger(pl *phy.SignaturePayload, delay sim.Time) {
	e := ap.e
	ap.armWatchdog()
	hint := pl.SlotHint
	if ap.armed != nil {
		// Re-reference an armed transmission for this very slot ("the
		// transmitter uses the last correctly received trigger", §3.4).
		if ap.armed.act.slot == hint && e.k.Now()-ap.armed.at < e.dur.slot/2 {
			ap.rearm(delay)
		} else {
			e.TriggerLate++
		}
		return
	}
	// Skip duties whose slot has already passed (their air time is gone);
	// a pending poll for the boundary before this slot still runs.
	for len(ap.actions) > 0 {
		a0 := ap.actions[0]
		if a0.kind == aPoll && a0.slot == hint-1 {
			break
		}
		if a0.slot >= hint {
			break
		}
		ap.actions = ap.actions[1:]
	}
	ap.startSlot(hint, delay)
}

// startSlot executes the AP's next action if it belongs to the start of
// slot hint: the poll at the boundary before it, or its own send, armed
// delay later. Duties for later slots wait for their own reference.
func (ap *apNode) startSlot(hint int, delay sim.Time) {
	if len(ap.actions) == 0 {
		return
	}
	switch a0 := ap.actions[0]; {
	case a0.kind == aPoll && a0.slot == hint-1:
		ap.execNext(0)
	case a0.kind == aSend && a0.slot == hint:
		ap.execNext(delay)
	}
}

// send transmits the scheduled link's head-of-queue packet, or a fake
// header when there is nothing to send (or the entry is converter-inserted
// and the queue is empty).
func (ap *apNode) send(act action) {
	e := ap.e
	if !ap.ready() {
		return
	}
	slot, now := e.slot(act.slot), e.k.Now()
	ap.ptr = max(ap.ptr, act.slot+1)
	ap.lastOffset, ap.lastSlotStart = slot.offset, now
	e.noteProgress(act.slot)
	e.instrInto(&ap.meta.instr, act.link.Receiver, act.slot)
	ap.open(act.link, act.slot, e.navUntil(act.slot, now))
	// The sender always has the slot reference: broadcast its combination at
	// the slot's end regardless of the exchange outcome.
	ap.scheduleBroadcast(slot, act.slot, now)
	ap.checkPollSelf(act.slot, now)
	// The AP's own transmission is a time reference: free-run toward its
	// next duty, however many slots away. A trigger that still arrives
	// simply re-references the armed transmission; in trigger-disconnected
	// parts of the network this local clock is the only pacing (paper §3.3:
	// APs start executing the schedule individually).
	ap.scheduleSelfArm(slot.offset, now)
}

// scheduleSelfArm arms the AP's next pending action relative to a known
// slot boundary (the slot at offset from started at slotStart), using the
// nominal per-slot offsets.
func (ap *apNode) scheduleSelfArm(from, slotStart sim.Time) {
	e := ap.e
	if len(ap.actions) == 0 {
		return
	}
	next := ap.actions[0]
	at := slotStart + (e.slot(next.slot).offset - from)
	if next.kind == aPoll {
		// The poll runs after its slot's broadcast.
		at += e.dur.slot
	}
	// Free-running is a FALLBACK: give the trigger a grace period to arrive
	// first, so trigger references (which heal misalignment) always win when
	// the chain is connected.
	at += e.dur.slot / 8
	delay := at - e.k.Now()
	if delay < 0 {
		delay = 0
	}
	ap.later(delay, (*apCall).selfArm).act = next
}

// selfArm executes the AP's next action act if it is still pending and
// nothing is armed (scheduleSelfArm).
func (c *apCall) selfArm() {
	ap, next := c.ap, c.act
	c.free()
	if ap.armed != nil || len(ap.actions) == 0 {
		return
	}
	if ap.actions[0] != next {
		return // a trigger already consumed it
	}
	ap.execNext(0)
}

// checkPollSelf fires a pending poll for a slot the AP itself participated
// in: the AP knows the slot boundary without any trigger (the converter only
// plants explicit poll triggers for non-participating APs).
func (ap *apNode) checkPollSelf(idx int, slotStart sim.Time) {
	if len(ap.actions) == 0 || ap.actions[0].kind != aPoll || ap.actions[0].slot != idx {
		return
	}
	ap.actions = ap.actions[1:]
	boundary := slotStart + ap.e.dur.slot
	wait := boundary - ap.e.k.Now()
	if wait < 0 {
		wait = 0
	}
	ap.later(wait, (*apCall).poll).t = ap.e.slot(idx).offset
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == idx+1 {
		c := ap.later(wait, (*apCall).arm)
		c.act, c.t = ap.actions[0], ap.e.gapAfter(idx)
		ap.actions = ap.actions[1:]
		// Out of actions and not yet armed, the send's slot would be in
		// no list the log floor reads: hold it until the call runs.
		ap.armedSlots = append(ap.armedSlots, c.act.slot)
	}
}

// poll runs the AP's poll after the slot at offset t (checkPollSelf).
func (c *apCall) poll() {
	ap, offset := c.ap, c.t
	c.free()
	ap.doPoll(offset)
}

// arm arms act t after now (checkPollSelf), taking over the slot the
// deferral held in armedSlots.
func (c *apCall) arm() {
	ap, next, gap := c.ap, c.act, c.t
	c.free()
	ap.disarm(next.slot)
	ap.arm(next, gap)
}

// scheduleBroadcast arms this node's end-of-slot signature broadcast if the
// converter assigned it one. The call keeps its own copy of the targets.
func (ap *apNode) scheduleBroadcast(slot loggedSlot, idx int, slotStart sim.Time) {
	targets := lookupBcast(slot.RelSlot, ap.id)
	if len(targets) == 0 {
		return
	}
	c := ap.call((*apCall).signature)
	c.slot, c.targets = idx+1, append(c.targets[:0], targets...)
	c.rop, c.last = len(slot.ROPAfter) > 0, slot.batchEnd == idx
	ap.atBoundary(slotStart, c.fn)
}

// signature broadcasts targets' signatures at the end of slot slot-1 (the
// call's slot is the hint of the slot the broadcast starts), with the ROP
// flag rop; last tells whether slot-1 ends its batch (both gap inputs, see
// Engine.gap).
func (c *apCall) signature() {
	ap := c.ap
	if !ap.broadcast(c.slot-1, c.targets, c.rop) {
		c.free()
		return
	}
	// Half-duplex makes a broadcasting node deaf to triggers arriving at the
	// same instant, but its own broadcast end IS the slot boundary: if its
	// next duty starts exactly there, self-trigger from that reference.
	c.do = (*apCall).selfTrigger
	ap.e.k.After(ap.e.dur.sigFrame, c.fn).SetSource(sim.SrcMAC)
}

// selfTrigger starts slot hint slot from the end of the AP's own broadcast
// unless a transmission is armed already (signature).
func (c *apCall) selfTrigger() {
	ap, hint, rop, last := c.ap, c.slot, c.rop, c.last
	c.free()
	if ap.armed == nil {
		ap.startSlot(hint, ap.e.gap(hint-1, rop, last))
	}
}

// doPoll executes Rapid OFDM Polling: a poll broadcast, the clients' joint
// control symbol one slot later, decode, and the wired report to the server.
// offset is that of the slot the poll follows.
func (ap *apNode) doPoll(offset sim.Time) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		// The AP's own end-of-slot broadcast may share this instant; start
		// the poll right after it clears.
		ap.later(2*sim.Microsecond, (*apCall).pollRetry).t = offset
		return
	}
	ap.doPollNow(offset)
}

// pollRetry starts the poll after the slot at offset t, unless the AP is
// still transmitting (doPoll).
func (c *apCall) pollRetry() {
	ap, offset := c.ap, c.t
	c.free()
	if !ap.e.medium.Transmitting(ap.id) {
		ap.doPollNow(offset)
	}
}

func (ap *apNode) doPollNow(offset sim.Time) {
	e := ap.e
	e.Polls++
	// The poll is part of the current chain node: airtime and rop_poll
	// records accrue to the AP's reference span rather than a fresh one.
	pollSpan := ap.refSpan
	rounds := sim.Time(ap.poller.Rounds())
	// A multi-round cycle holds the channel for rounds consecutive poll
	// exchanges; a single frame of rounds × the poll air time models it.
	e.medium.Transmit(ap.id, &phy.Frame{
		Kind: phy.Poll, Dst: phy.Broadcast, Duration: rounds * e.dur.header,
		Payload: ap.id, ObsSpan: pollSpan,
	})
	ap.lastOffset = offset
	ap.lastSlotStart = e.k.Now() - e.dur.slot
	ap.scheduleSelfArm(offset, ap.lastSlotStart)
	// Each round takes one poll air time, the WiFi-slot turnaround and the
	// 16 µs control symbol; the cycle's decode completes after the last.
	decodeAt := rounds * (e.dur.header + phy.SlotTime + sim.Micros(16))
	ap.later(decodeAt, (*apCall).decode).span = pollSpan
}

// decode completes the polling cycle the poll with span span solicited,
// records its reports and sends them over the wire to the server
// (doPollNow).
func (c *apCall) decode() {
	ap := c.ap
	e := ap.e
	c.reports = ap.poller.AppendReports(c.reports[:0], poll.Context{
		Queue:    e.clientBacklogFn,
		RSSAtAP:  ap.rssAtAP,
		NoiseDBm: e.medium.Config().NoiseDBm,
		Rng:      e.k.Rand(),
	})
	e.notePollCycle(ap, c.reports, c.span)
	c.do = (*apCall).report
	e.k.After(e.wiredDelay(), c.fn).SetSource(sim.SrcMAC)
}

// report hands the call's reports to the server at the end of their wired
// trip (decode, and onSlot's piggyback relay).
func (c *apCall) report() {
	c.ap.e.server.ingest(c.reports)
	c.free()
}

// CarrierChanged implements phy.Listener: channel activity is a liveness
// signal for the watchdog.
func (ap *apNode) CarrierChanged(busy bool) {
	if busy && ap.watchdog.Scheduled() {
		ap.armWatchdog()
	}
}

// onSlot handles a client's uplink data or fake header: the AP locates the
// slot in its schedule, ACKs data with the client's instructions, and runs
// its own boundary duties.
func (ap *apNode) onSlot(f *phy.Frame, m *meta) {
	e := ap.e
	ap.armWatchdog()
	// Identify the slot from the schedule position. ptr holds the next
	// expected slot: consecutive appearances of the same link resolve to
	// consecutive slots.
	idx := e.findSlotFor(f.Src, ap.id, ap.ptr)
	if idx < 0 {
		return
	}
	ap.ptr = max(ap.ptr, idx+1)
	e.noteProgress(idx)
	slot := e.slot(idx)
	slotStart := e.k.Now() - f.AirTime()
	ap.lastOffset = slot.offset
	ap.lastSlotStart = slotStart
	// The received slot is this AP's new causal reference: the boundary
	// broadcast and any poll it runs hang off the sender's slot span.
	ap.refSpan, ap.depth = m.span, m.depth
	if f.Kind == phy.Data {
		if e.cfg.Piggyback {
			// Relay the piggybacked backlog to the server.
			c := ap.later(e.wiredDelay(), (*apCall).report)
			c.reports = append(c.reports[:0], poll.Report{Client: f.Src, Value: m.backlog, OK: true})
		}
		a := ap.ack(f, m.span)
		e.instrInto(&a.in, f.Src, idx)
		a.hasIn = true
	}
	ap.scheduleBroadcast(slot, idx, slotStart)
	ap.checkPollSelf(idx, slotStart)
}

// onAck needs no follow-up at an AP: its downlink frames carried the
// client's instructions already.
func (ap *apNode) onAck(*phy.Frame) {}

// clientBacklog counts a client's uplink backlog including any packet parked
// awaiting retransmission.
func (e *Engine) clientBacklog(c phy.NodeID) int {
	cn, ok := e.clients[c]
	if !ok || cn.link == nil {
		return 0
	}
	n := e.queues[cn.link.ID].Len()
	if len(cn.inflight) > 0 {
		n++
	}
	return n
}

// findSlotFor locates the first slot at or after from whose entries contain
// the sender→receiver link; -1 if unknown. Both searches stop at the log's
// base: a slot below it carries no entry the receiver receives (the floor
// in Engine.log's comment).
func (e *Engine) findSlotFor(sender, receiver phy.NodeID, from int) int {
	for idx := max(from, e.base); idx < e.end(); idx++ {
		for _, en := range e.slot(idx).Entries {
			if en.Link.Sender == sender && en.Link.Receiver == receiver {
				return idx
			}
		}
	}
	// The exchange may belong to a slot before our pointer (stale retry);
	// search backwards a little.
	for idx := from - 1; idx >= e.base && idx > from-4; idx-- {
		for _, en := range e.slot(idx).Entries {
			if en.Link.Sender == sender && en.Link.Receiver == receiver {
				return idx
			}
		}
	}
	return -1
}

// lookupBcast returns the broadcast targets assigned to node n at the end of
// the slot, or nil.
func lookupBcast(slot *convert.RelSlot, n phy.NodeID) []phy.NodeID {
	for _, b := range slot.Broadcasts {
		if b.From == n {
			return b.Targets
		}
	}
	return nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// broadcastSigs returns the signature IDs a broadcast to targets carries,
// in buf's storage, sorted so the payload is deterministic (every node's
// signature index is its node ID; the START and ROP signatures are implicit
// in the payload flags).
func broadcastSigs(buf []int, targets []phy.NodeID) []int {
	sigs := buf[:0]
	for _, n := range targets {
		sigs = append(sigs, int(n))
	}
	slices.Sort(sigs)
	return sigs
}
