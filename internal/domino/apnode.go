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
	// of each polling cycle (internal/poll registry; ROP by default).
	poller poll.Poller

	known   int // exclusive upper bound of slots received from the server
	actions []action
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
}

// receiveSchedule integrates newly arrived slots (wired dispatch callback).
func (ap *apNode) receiveSchedule(newKnown int) {
	e := ap.e
	e.delivered(newKnown)
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
	ap.known = newKnown
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
			client := en.Link.Sender
			ap.sendSignature(0, []phy.NodeID{client}, false, false)
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
	d := watchdogSlots * ap.e.cfg.slotDuration()
	ap.watchdog = ap.e.k.After(d, ap.onWatchdog)
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
		if ap.armed.act.slot == hint && e.k.Now()-ap.armed.at < e.cfg.slotDuration()/2 {
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
	ap.open(act.link, act.slot, &meta{instr: e.instrFor(act.link.Receiver, act.slot)},
		e.navUntil(act.slot, now))
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
		at += e.cfg.slotDuration()
	}
	// Free-running is a FALLBACK: give the trigger a grace period to arrive
	// first, so trigger references (which heal misalignment) always win when
	// the chain is connected.
	at += e.cfg.slotDuration() / 8
	delay := at - e.k.Now()
	if delay < 0 {
		delay = 0
	}
	e.k.After(delay, func() {
		if ap.armed != nil || len(ap.actions) == 0 {
			return
		}
		if ap.actions[0] != next {
			return // a trigger already consumed it
		}
		ap.execNext(0)
	})
}

// checkPollSelf fires a pending poll for a slot the AP itself participated
// in: the AP knows the slot boundary without any trigger (the converter only
// plants explicit poll triggers for non-participating APs).
func (ap *apNode) checkPollSelf(idx int, slotStart sim.Time) {
	if len(ap.actions) == 0 || ap.actions[0].kind != aPoll || ap.actions[0].slot != idx {
		return
	}
	ap.actions = ap.actions[1:]
	boundary := slotStart + ap.e.cfg.slotDuration()
	wait := boundary - ap.e.k.Now()
	if wait < 0 {
		wait = 0
	}
	offset := ap.e.slot(idx).offset
	ap.e.k.After(wait, func() { ap.doPoll(offset) })
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == idx+1 {
		next := ap.actions[0]
		ap.actions = ap.actions[1:]
		gap := ap.e.gapAfter(idx)
		ap.e.k.After(wait, func() { ap.arm(next, gap) })
	}
}

// scheduleBroadcast arms this node's end-of-slot signature broadcast if the
// converter assigned it one.
func (ap *apNode) scheduleBroadcast(slot loggedSlot, idx int, slotStart sim.Time) {
	targets := lookupBcast(slot.RelSlot, ap.id)
	if len(targets) == 0 {
		return
	}
	ropFlag, batchLast := len(slot.ROPAfter) > 0, slot.batchEnd == idx
	ap.atBoundary(slotStart, func() { ap.sendSignature(idx+1, targets, ropFlag, batchLast) })
}

// sendSignature broadcasts targets' signatures at the end of slot slotHint-1,
// with the ROP flag ropFlag; batchLast tells whether that slot ends its batch
// (both gap inputs, see Engine.gap).
func (ap *apNode) sendSignature(slotHint int, targets []phy.NodeID, ropFlag, batchLast bool) {
	if !ap.broadcast(slotHint-1, targets, ropFlag) {
		return
	}
	// Half-duplex makes a broadcasting node deaf to triggers arriving at the
	// same instant, but its own broadcast end IS the slot boundary: if its
	// next duty starts exactly there, self-trigger from that reference.
	ap.e.k.After(ap.e.cfg.sigFrameDuration(), func() {
		if ap.armed == nil {
			ap.startSlot(slotHint, ap.e.gap(slotHint-1, ropFlag, batchLast))
		}
	})
}

// doPoll executes Rapid OFDM Polling: a poll broadcast, the clients' joint
// control symbol one slot later, decode, and the wired report to the server.
// offset is that of the slot the poll follows.
func (ap *apNode) doPoll(offset sim.Time) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		// The AP's own end-of-slot broadcast may share this instant; start
		// the poll right after it clears.
		e.k.After(2*sim.Microsecond, func() {
			if !e.medium.Transmitting(ap.id) {
				ap.doPollNow(offset)
			}
		})
		return
	}
	ap.doPollNow(offset)
}

func (ap *apNode) doPollNow(offset sim.Time) {
	e := ap.e
	e.Polls++
	// The poll is part of the current chain node: airtime and rop_poll
	// records accrue to the AP's reference span rather than a fresh one.
	pollSpan := ap.refSpan
	rounds := sim.Time(1)
	if ap.poller != nil {
		rounds = sim.Time(ap.poller.Rounds())
	}
	// A multi-round cycle holds the channel for rounds consecutive poll
	// exchanges; a single frame of rounds × the poll air time models it.
	e.medium.Transmit(ap.id, &phy.Frame{
		Kind: phy.Poll, Dst: phy.Broadcast, Duration: rounds * e.cfg.pollAirtime(),
		Payload: ap.id, ObsSpan: pollSpan,
	})
	ap.lastOffset = offset
	ap.lastSlotStart = e.k.Now() - e.cfg.slotDuration()
	ap.scheduleSelfArm(offset, ap.lastSlotStart)
	// Each round takes one poll air time, the WiFi-slot turnaround and the
	// 16 µs control symbol; the cycle's decode completes after the last.
	decodeAt := rounds * (e.cfg.pollAirtime() + phy.SlotTime + sim.Micros(16))
	e.k.After(decodeAt, func() {
		if ap.poller == nil {
			return
		}
		res := ap.poller.Poll(poll.Context{
			Queue:    func(c phy.NodeID) int { return e.clientBacklog(c) },
			RSSAtAP:  func(c phy.NodeID) float64 { return e.net.RSS[c][ap.id] },
			NoiseDBm: e.medium.Config().NoiseDBm,
			Rng:      e.k.Rand(),
			Tracer:   e.Obs,
			Now:      e.k.Now(),
			Span:     pollSpan,
		})
		e.notePollCycle(res)
		e.k.After(e.wiredDelay(), func() { e.server.pollResult(res) })
	})
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
			src, backlog := f.Src, m.backlog
			e.k.After(e.wiredDelay(), func() { e.server.report(src, backlog) })
		}
		in := e.instrFor(f.Src, idx)
		ap.ack(f, m.span, &in)
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
// sorted so the payload is deterministic (every node's signature index is
// its node ID; the START and ROP signatures are implicit in the payload
// flags).
func broadcastSigs(targets []phy.NodeID) []int {
	out := make([]int, len(targets))
	for i, n := range targets {
		out[i] = int(n)
	}
	slices.Sort(out)
	return out
}
