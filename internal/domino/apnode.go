// AP-side node logic: schedule reception, trigger handling, slot execution,
// polling, broadcasts and the free-running fallback clock.

package domino

import (
	"slices"

	"repro/internal/convert"
	"repro/internal/mac"
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

// armedTx is a transmission waiting for its slot start; a duplicate trigger
// re-references it ("the transmitter uses the last correctly received trigger
// as time reference", §3.4).
type armedTx struct {
	act action
	ev  sim.Event
	at  sim.Time
}

// ----------------------------------------------------------------------------
// Access point

type apNode struct {
	e  *Engine
	id phy.NodeID
	// poller owns this AP's client → subchannel/round layout and the decode
	// of each polling cycle (internal/poll registry; ROP by default).
	poller poll.Poller

	known   int // exclusive upper bound of slots received from the server
	actions []action
	started bool
	ptr     int // schedule position: the next slot index expected
	// lastSlot/lastSlotStart record the AP's most recent slot reference, so
	// self-arming can resume when new schedule arrives for duties that were
	// beyond the previously known slots.
	lastSlot      int
	lastSlotStart sim.Time

	armed *armedTx

	// inflight is the bundle awaiting its ACK (empty when none), on
	// inflightLink. Its backing array is the AP's reusable bundle buffer.
	inflight     []mac.Packet
	inflightLink *topo.Link
	ackEv        sim.Event
	// onAckTimeout is ackTimeout bound once, so arming the ACK timer
	// allocates no method value.
	onAckTimeout func()

	watchdog sim.Event
	// onWatchdog is the watchdog's callback, bound once per node so
	// re-arming the timer allocates no closure.
	onWatchdog func()

	// refSpan/depth track the causal span of this AP's current time
	// reference (last trigger, own slot, or own broadcast) and its
	// trigger-cascade depth; both stay zero when spans are disabled.
	refSpan int64
	depth   int
}

// receiveSchedule integrates newly arrived slots (wired dispatch callback).
func (ap *apNode) receiveSchedule(newKnown int) {
	e := ap.e
	for idx := ap.known; idx < newKnown; idx++ {
		slot := e.slots[idx]
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
			// arrival itself.
			ap.scheduleSelfArm(0, ap.e.k.Now())
		} else {
			// Duties beyond the previously known schedule could not be
			// self-armed when the AP last acted; re-arm from that reference.
			ap.scheduleSelfArm(ap.lastSlot, ap.lastSlotStart)
		}
	}
	ap.armWatchdog()
}

// bootstrap starts the very first batch: an AP scheduled in slot 0 begins on
// schedule receipt; an AP whose slot-0 link is an uplink instead triggers the
// client with a signature (paper §3.3, batch connection).
func (ap *apNode) bootstrap() {
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == 0 {
		ap.execNext(0, 0)
		return
	}
	if len(ap.e.slots) == 0 {
		return
	}
	// If the front of the schedule is one of our clients' uplinks, kick the
	// client with a signature (paper §3.3); any pending poll action will be
	// triggered by the slot's end-of-slot broadcast.
	for _, en := range ap.e.slots[0].Entries {
		if !en.Link.Downlink && en.Link.AP == ap.id {
			client := en.Link.Sender
			ap.sendSignature(0, []phy.NodeID{client}, false)
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
		ap.execNext(0, ap.ptr+1)
	}
	ap.armWatchdog()
}

// execNext pops and executes the next pending action. hint is the slot index
// the caller believes is starting (for instrumentation).
func (ap *apNode) execNext(delay sim.Time, hint int) {
	if len(ap.actions) == 0 {
		return
	}
	act := ap.actions[0]
	ap.actions = ap.actions[1:]
	switch act.kind {
	case aPoll:
		ap.doPoll(act.slot)
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

// arm schedules a transmission relative to the current time reference.
func (ap *apNode) arm(act action, delay sim.Time) {
	tx := &armedTx{act: act, at: ap.e.k.Now()}
	tx.ev = ap.e.k.After(delay, func() {
		ap.armed = nil
		ap.sendData(act)
	})
	ap.armed = tx
}

// onTrigger handles detection of this AP's own signature. The S′ sequence
// doubles as a slot counter (SlotHint), so duties are matched to the slot
// the trigger starts: duties whose slot already passed are skipped, and a
// trigger for an already-armed slot merely refreshes the time reference.
func (ap *apNode) onTrigger(pl *phy.SignaturePayload) {
	e := ap.e
	ap.armWatchdog()
	ap.refSpan, ap.depth = e.noteTrigger(ap.id, pl)
	hint := pl.SlotHint
	delay := sim.Time(0)
	if pl.ROP {
		delay = e.pollGap()
	}
	if ap.armed != nil {
		// Re-reference an armed transmission for this very slot ("the
		// transmitter uses the last correctly received trigger", §3.4).
		if ap.armed.act.slot == hint && e.k.Now()-ap.armed.at < e.cfg.slotDuration()/2 {
			ap.armed.ev.Cancel()
			ap.arm(ap.armed.act, delay)
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
	if len(ap.actions) == 0 {
		return
	}
	a0 := ap.actions[0]
	switch {
	case a0.kind == aPoll && a0.slot == hint-1:
		ap.execNext(0, hint)
	case a0.kind == aSend && a0.slot == hint:
		ap.execNext(delay, hint)
	}
	// Duties for later slots wait for their own reference.
}

// sendData transmits the scheduled link's head-of-queue packet, or a fake
// header when there is nothing to send (or the entry is converter-inserted
// and the queue is empty).
func (ap *apNode) sendData(act action) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		return
	}
	// A superseded in-flight exchange (its ACK window overlapping this new
	// slot) counts as missed and retries; it must never be silently
	// clobbered.
	if len(ap.inflight) > 0 {
		if ap.ackEv.Scheduled() {
			ap.ackEv.Cancel()
			ap.ackEv = sim.Event{}
		}
		prev := ap.inflight
		ap.inflight = ap.inflight[:0]
		e.AckMisses++
		e.requeueBundle(ap.inflightLink.ID, prev)
	}
	slot := e.slots[act.slot]
	ap.ptr = max(ap.ptr, act.slot+1)
	ap.lastSlot = act.slot
	ap.lastSlotStart = e.k.Now()
	e.noteProgress(act.slot)
	ropFlag := len(slot.ROPAfter) > 0
	clientSigs := lookupBcast(slot, act.link.Receiver)
	now := e.k.Now()
	if e.Misalign != nil {
		e.Misalign.ObserveGroup(act.slot, now, e.refGroup[ap.id])
	}
	bundle := e.popBundle(act.link.ID, ap.inflight)
	var slotSpan int64
	if e.sp != nil {
		slotSpan = e.sp.Next()
		for i := range bundle {
			bundle[i].TxSpan = slotSpan
		}
	}
	m := &meta{slot: act.slot, clientSigs: clientSigs, rop: ropFlag,
		span: slotSpan, depth: ap.depth,
		selfNext: e.clientSenderInSlot(act.link.Receiver, act.slot+1),
		nextWait: e.gapAfter(act.slot)}
	ap.inflight = bundle
	if len(bundle) > 0 {
		e.DataSends += len(bundle)
		e.emitSlotStart("data", ap.id, act.link, act.slot, slotSpan, ap.refSpan)
		dur := e.cfg.dataAirtime()
		e.medium.Transmit(ap.id, &phy.Frame{
			Kind: phy.Data, Dst: act.link.Receiver, Bytes: e.cfg.VirtualBytes,
			Rate: e.cfg.Rate, Duration: dur, Payload: m, Handle: bundle[0].Handle,
			NAV: e.navUntil(act.slot, now), ObsSpan: slotSpan,
		})
		ap.inflightLink = act.link
		timeout := dur + phy.SIFS + e.cfg.ackAirtime() + 2*phy.SlotTime
		ap.ackEv = e.k.After(timeout, ap.onAckTimeout)
	} else {
		e.FakeSends++
		e.emitSlotStart("fake", ap.id, act.link, act.slot, slotSpan, ap.refSpan)
		e.medium.Transmit(ap.id, &phy.Frame{
			Kind: phy.FakeHeader, Dst: act.link.Receiver, Bytes: 0,
			Rate: e.cfg.Rate, Duration: e.cfg.fakeHeaderAirtime(), Payload: m,
			ObsSpan: slotSpan,
		})
	}
	// The slot the AP just opened becomes its causal reference.
	ap.refSpan = slotSpan
	// The sender always has the slot reference: broadcast its combination at
	// the slot's end regardless of the exchange outcome.
	ap.scheduleBroadcast(slot, act.slot, now)
	ap.checkPollSelf(act.slot, now)
	// The AP's own transmission is a time reference: free-run toward its
	// next duty, however many slots away. A trigger that still arrives
	// simply re-references the armed transmission; in trigger-disconnected
	// parts of the network this local clock is the only pacing (paper §3.3:
	// APs start executing the schedule individually).
	ap.scheduleSelfArm(act.slot, now)
}

// scheduleSelfArm arms the AP's next pending action relative to the known
// slot boundary (fromSlot started at slotStart), using the nominal per-slot
// offsets.
func (ap *apNode) scheduleSelfArm(fromSlot int, slotStart sim.Time) {
	e := ap.e
	if len(ap.actions) == 0 {
		return
	}
	next := ap.actions[0]
	if next.slot >= len(e.slotOffset) || fromSlot >= len(e.slotOffset) {
		return
	}
	at := slotStart + (e.slotOffset[next.slot] - e.slotOffset[fromSlot])
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
		switch next.kind {
		case aPoll:
			ap.execNext(0, next.slot)
		case aSend:
			ap.actions = ap.actions[1:]
			ap.arm(next, 0)
		}
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
	ap.e.k.After(wait, func() { ap.doPoll(idx) })
	if len(ap.actions) > 0 && ap.actions[0].kind == aSend && ap.actions[0].slot == idx+1 {
		next := ap.actions[0]
		ap.actions = ap.actions[1:]
		gap := ap.e.gapAfter(idx)
		ap.e.k.After(wait, func() { ap.arm(next, gap) })
	}
}

// scheduleBroadcast arms this node's end-of-slot signature broadcast if the
// converter assigned it one.
func (ap *apNode) scheduleBroadcast(slot *convert.RelSlot, idx int, slotStart sim.Time) {
	targets := lookupBcast(slot, ap.id)
	if len(targets) == 0 {
		return
	}
	at := slotStart + ap.e.cfg.broadcastOffset()
	delay := at - ap.e.k.Now()
	if delay < 0 {
		delay = 0
	}
	ropFlag := len(slot.ROPAfter) > 0
	ap.e.k.After(delay, func() { ap.sendSignature(idx+1, targets, ropFlag) })
}

func (ap *apNode) sendSignature(slotHint int, targets []phy.NodeID, ropFlag bool) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		return
	}
	var bSpan int64
	if e.sp != nil {
		bSpan = e.sp.Next()
	}
	e.emitSlotEnd(ap.id, slotHint-1, bSpan, ap.refSpan)
	e.medium.Transmit(ap.id, &phy.Frame{
		Kind: phy.Signature, Dst: phy.Broadcast, Duration: e.cfg.sigFrameDuration(),
		Payload: &phy.SignaturePayload{Sigs: broadcastSigs(targets), Start: true, ROP: ropFlag,
			SlotHint: slotHint, ObsSpan: bSpan, ObsDepth: ap.depth},
		ObsSpan: bSpan,
	})
	// The broadcast closes the slot; subsequent self-referenced duties hang
	// off it.
	ap.refSpan = bSpan
	// Half-duplex makes a broadcasting node deaf to triggers arriving at the
	// same instant, but its own broadcast end IS the slot boundary: if its
	// next duty starts exactly there, self-trigger from that reference.
	e.k.After(e.cfg.sigFrameDuration(), func() { ap.selfTrigger(slotHint, ropFlag) })
}

// selfTrigger consumes the AP's next action when it belongs to the slot this
// node's own broadcast just started.
func (ap *apNode) selfTrigger(slotHint int, ropFlag bool) {
	if ap.armed != nil || len(ap.actions) == 0 {
		return
	}
	act := ap.actions[0]
	switch {
	case act.kind == aPoll && act.slot == slotHint-1:
		ap.execNext(0, slotHint)
	case act.kind == aSend && act.slot == slotHint:
		ap.actions = ap.actions[1:]
		ap.arm(act, ap.e.gapAfter(slotHint-1))
	}
}

// doPoll executes Rapid OFDM Polling: a poll broadcast, the clients' joint
// control symbol one slot later, decode, and the wired report to the server.
func (ap *apNode) doPoll(slotIdx int) {
	e := ap.e
	if e.medium.Transmitting(ap.id) {
		// The AP's own end-of-slot broadcast may share this instant; start
		// the poll right after it clears.
		e.k.After(2*sim.Microsecond, func() {
			if !e.medium.Transmitting(ap.id) {
				ap.doPollNow(slotIdx)
			}
		})
		return
	}
	ap.doPollNow(slotIdx)
}

func (ap *apNode) doPollNow(slotIdx int) {
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
	ap.lastSlot = slotIdx
	ap.lastSlotStart = e.k.Now() - e.cfg.slotDuration()
	ap.scheduleSelfArm(slotIdx, ap.lastSlotStart)
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
		lat := e.cfg.WiredLatencyMean +
			sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
		if lat < 0 {
			lat = 0
		}
		e.k.After(lat, func() {
			e.server.pollResult(res, func(c phy.NodeID) *topo.Link {
				if cn, ok := e.clients[c]; ok {
					return cn.uplink
				}
				return nil
			})
		})
	})
}

// ackTimeout applies the paper's missed-ACK policy (§3.5): keep the bundle
// at the head of its queue; the next scheduled slot for this destination
// retransmits it. The timer is cancelled before the in-flight bundle is
// replaced, so inflightLink is the link the timed-out bundle went on.
func (ap *apNode) ackTimeout() {
	ap.ackEv = sim.Event{}
	if len(ap.inflight) == 0 {
		return
	}
	bundle := ap.inflight
	ap.inflight = ap.inflight[:0]
	ap.e.AckMisses++
	ap.e.requeueBundle(ap.inflightLink.ID, bundle)
}

// CarrierChanged implements phy.Listener: channel activity is a liveness
// signal for the watchdog.
func (ap *apNode) CarrierChanged(busy bool) {
	if busy && ap.watchdog.Scheduled() {
		ap.armWatchdog()
	}
}

// FrameReceived implements phy.Listener.
func (ap *apNode) FrameReceived(f *phy.Frame, ok bool, det *phy.SignatureDetection) {
	e := ap.e
	if !ok {
		if f.Kind == phy.Signature {
			if pl, good := f.Payload.(*phy.SignaturePayload); good && containsInt(pl.Sigs, int(ap.id)) {
				e.triggerMiss(ap.id, pl.SlotHint)
			}
		}
		return
	}
	switch f.Kind {
	case phy.Signature:
		pl := f.Payload.(*phy.SignaturePayload)
		if containsInt(pl.Sigs, int(ap.id)) || e.falseTrigger() {
			ap.onTrigger(pl)
		}
	case phy.Data, phy.FakeHeader:
		if f.Dst != ap.id {
			return
		}
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
		slot := e.slots[idx]
		slotStart := e.k.Now() - f.AirTime()
		ap.lastSlot = idx
		ap.lastSlotStart = slotStart
		// The received slot is this AP's new causal reference: the boundary
		// broadcast and any poll it runs hang off the sender's slot span.
		m := f.Payload.(*meta)
		ap.refSpan, ap.depth = m.span, m.depth
		if f.Kind == phy.Data {
			if e.cfg.Piggyback {
				// Relay the piggybacked backlog to the server.
				src := f.Src
				backlog := m.backlog
				lat := e.cfg.WiredLatencyMean +
					sim.Time(e.k.Rand().NormFloat64()*float64(e.cfg.WiredLatencyStd))
				if lat < 0 {
					lat = 0
				}
				e.k.After(lat, func() {
					if cn, okc := e.clients[src]; okc && cn.uplink != nil {
						e.server.upEst[cn.uplink.ID] = backlog
					}
				})
			}
			clientSigs := lookupBcast(slot, f.Src)
			am := &ackMeta{slot: idx, clientSigs: clientSigs,
				rop: len(slot.ROPAfter) > 0, selfNext: e.clientSenderInSlot(f.Src, idx+1),
				nextWait: e.gapAfter(idx)}
			src, h := f.Src, f.Handle
			e.k.After(phy.SIFS, func() {
				if e.medium.Transmitting(ap.id) {
					return
				}
				e.medium.Transmit(ap.id, &phy.Frame{
					Kind: phy.Ack, Dst: src, Bytes: phy.AckBytes,
					Rate: e.cfg.Rate, Duration: e.cfg.ackAirtime(), Payload: am,
					Handle: h, ObsSpan: m.span,
				})
			})
		}
		ap.scheduleBroadcast(slot, idx, slotStart)
		ap.checkPollSelf(idx, slotStart)
	case phy.Ack:
		if f.Dst != ap.id {
			return
		}
		if len(ap.inflight) > 0 && f.Handle == ap.inflight[0].Handle {
			if ap.ackEv.Scheduled() {
				ap.ackEv.Cancel()
				ap.ackEv = sim.Event{}
			}
			bundle := ap.inflight
			ap.inflight = ap.inflight[:0]
			e.deliverBundle(bundle)
		}
	}
}

// clientBacklog counts a client's uplink backlog including any packet parked
// awaiting retransmission.
func (e *Engine) clientBacklog(c phy.NodeID) int {
	cn, ok := e.clients[c]
	if !ok || cn.uplink == nil {
		return 0
	}
	n := e.queues[cn.uplink.ID].Len()
	if len(cn.inflight) > 0 {
		n++
	}
	return n
}

// findSlotFor locates the first slot at or after from whose entries contain
// the sender→receiver link; -1 if unknown.
func (e *Engine) findSlotFor(sender, receiver phy.NodeID, from int) int {
	for idx := from; idx < len(e.slots); idx++ {
		for _, en := range e.slots[idx].Entries {
			if en.Link.Sender == sender && en.Link.Receiver == receiver {
				return idx
			}
		}
	}
	// The exchange may belong to a slot before our pointer (stale retry);
	// search backwards a little.
	for idx := from - 1; idx >= 0 && idx > from-4; idx-- {
		for _, en := range e.slots[idx].Entries {
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
