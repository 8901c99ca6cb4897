// The slot radio: every DOMINO slot is the same exchange whatever the
// sender's role (§3, Fig 8). A triggered node sends data or a fake header,
// the receiver ACKs, and an endpoint broadcasts the next slot's combined
// signatures. apNode and clientNode both embed radio and add their role's
// scheduling.

package domino

import (
	"slices"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// role is what an AP and a client do differently: how they act on their
// own trigger (delay is the wait before the slot it starts), on a data or
// fake-header frame addressed to them and after an ACK addressed to them,
// and how they send an armed slot.
type role interface {
	onTrigger(pl *phy.SignaturePayload, delay sim.Time)
	onSlot(f *phy.Frame, m *meta)
	onAck(f *phy.Frame)
	send(act action)
}

// armedTx is a transmission waiting for its slot start; a duplicate trigger
// re-references it ("the transmitter uses the last correctly received trigger
// as time reference", §3.4). Entries are recycled through their radio's
// armedFree list: an entry goes back once its event fires or is cancelled,
// so arming allocates nothing in steady state.
type armedTx struct {
	r   *radio
	act action
	ev  sim.Event
	at  sim.Time
	// fireFn is fire bound once, when the entry was made.
	fireFn func()
}

// fire sends the armed action at its slot start.
func (tx *armedTx) fire() {
	r, act := tx.r, tx.act
	r.disarm(act.slot)
	r.armed = nil
	r.freeArmed(tx)
	r.role.send(act)
}

// radio is one node's slot machinery: its in-flight bundle, ACK exchange,
// signature broadcasts and causal reference.
type radio struct {
	e    *Engine
	id   phy.NodeID
	role role

	// inflight is the bundle awaiting its ACK (empty when none), sent on
	// link: a client's uplink (nil without uplink traffic), or the link of
	// an AP's latest slot. Its backing array is the node's reusable bundle
	// buffer.
	inflight []mac.Packet
	link     *topo.Link
	ackEv    sim.Event
	// onAckTimeout is ackTimeout bound once, so arming the ACK timer
	// allocates no method value.
	onAckTimeout func()

	// acks[ackHead:] are the ACKs the node owes, oldest first (ack).
	// sendAckFn is sendAck bound once.
	acks      []pendingAck
	ackHead   int
	sendAckFn func()

	// The payloads of the node's own frames, reused frame after frame: a
	// node sends one frame at a time, and a receiver reads a payload only
	// during FrameReceived (phy.Frame.Payload).
	meta  meta                 // data and fake-header frames
	ackIn instr                // an AP's ACK: the client's instructions
	sig   phy.SignaturePayload // signature broadcasts

	armed *armedTx
	// armedSlots holds the slot of every armed transmission whose event has
	// not fired yet: armed's, one it was armed over (an AP's checkPollSelf
	// arms without checking), which still fires, and one an AP's deferred
	// arm call (checkPollSelf) will arm. An AP's log floor counts them
	// (Engine.log).
	armedSlots []int
	armedFree  []*armedTx

	// refSpan/depth track the causal span of the node's current time
	// reference (last trigger, own or received slot, or own broadcast) and
	// its trigger-cascade depth; both stay zero when spans are disabled.
	refSpan int64
	depth   int
}

// pendingAck is an ACK a node owes one SIFS after a data frame: the
// frame's source, packet handle and slot span, copied out of the frame,
// and for an AP the instructions the ACK carries to the client (in, in the
// entry's own storage, when hasIn).
type pendingAck struct {
	dst   phy.NodeID
	h     uint32
	span  int64
	in    instr
	hasIn bool
}

// init binds the radio to node id of e; role is the node embedding it.
func (r *radio) init(e *Engine, id phy.NodeID, role role) {
	r.e, r.id, r.role = e, id, role
	r.onAckTimeout, r.sendAckFn = r.ackTimeout, r.sendAck
}

// FrameReceived implements phy.Listener: trigger detection and misses, and
// ACK matching, are the same for both roles; the rest goes to the role. A
// node overhears no frame kind (ensureNode), so every frame but a signature
// is addressed to it.
func (r *radio) FrameReceived(f *phy.Frame, ok bool, _ *phy.SignatureDetection) {
	e := r.e
	if !ok {
		if f.Kind == phy.Signature {
			if pl, good := f.Payload.(*phy.SignaturePayload); good && containsInt(pl.Sigs, int(r.id)) {
				e.triggerMiss(r.id, pl.SlotHint)
			}
		}
		return
	}
	switch f.Kind {
	case phy.Signature:
		pl := f.Payload.(*phy.SignaturePayload)
		if containsInt(pl.Sigs, int(r.id)) || e.falseTrigger() {
			r.refSpan, r.depth = e.noteTrigger(r.id, pl)
			delay := sim.Time(0)
			if pl.ROP {
				delay = e.pollGap()
			}
			r.role.onTrigger(pl, delay)
		}
	case phy.Data, phy.FakeHeader:
		m := f.Payload.(*meta)
		r.role.onSlot(f, m)
		if scribbleRecycled {
			m.scribble()
		}
	case phy.Ack:
		if len(r.inflight) > 0 && f.Handle == r.inflight[0].Handle {
			e.deliverBundle(r.take())
		}
		r.role.onAck(f)
		if in, carries := f.Payload.(*instr); scribbleRecycled && carries {
			in.scribble()
		}
	}
}

// arm schedules act's transmission delay after the current time reference.
func (r *radio) arm(act action, delay sim.Time) {
	var tx *armedTx
	if n := len(r.armedFree) - 1; n >= 0 {
		tx = r.armedFree[n]
		r.armedFree = r.armedFree[:n]
	} else {
		tx = &armedTx{r: r}
		tx.fireFn = tx.fire
	}
	tx.act, tx.at = act, r.e.k.Now()
	r.armedSlots = append(r.armedSlots, act.slot)
	tx.ev = r.e.k.After(delay, tx.fireFn).SetSource(sim.SrcMAC)
	r.armed = tx
}

// rearm moves the armed transmission to delay after the current time
// reference: a fresh trigger for it.
func (r *radio) rearm(delay sim.Time) {
	tx := r.armed
	tx.ev.Cancel()
	r.disarm(tx.act.slot)
	act := tx.act
	r.freeArmed(tx)
	r.arm(act, delay)
}

// freeArmed returns an entry whose event fired or was cancelled.
func (r *radio) freeArmed(tx *armedTx) {
	tx.ev = sim.Event{}
	if scribbleRecycled {
		tx.act, tx.at = action{slot: scribbledSlot}, -1
	}
	r.armedFree = append(r.armedFree, tx)
}

// disarm removes one armed transmission of slot from armedSlots.
func (r *radio) disarm(slot int) {
	i := slices.Index(r.armedSlots, slot)
	r.armedSlots = slices.Delete(r.armedSlots, i, i+1)
}

// ready reports whether the node can open a slot now, i.e. it is not
// transmitting. A bundle still awaiting its ACK (its ACK window overlapping
// the new slot) counts as missed and retries; it is never silently
// clobbered.
func (r *radio) ready() bool {
	if r.e.medium.Transmitting(r.id) {
		return false
	}
	r.miss()
	return true
}

// open sends slot idx's frame on link: the head of the link's queue as one
// data bundle that awaits its ACK, or a fake header when the queue is empty.
// The frame carries the node's meta, whose instructions for the receiver
// the caller has set; open adds the slot's span, the sender's depth and its
// remaining backlog. The slot becomes the node's causal reference.
func (r *radio) open(link *topo.Link, idx int, nav sim.Time) {
	e := r.e
	if idx < misalignSlots {
		// The compare keeps the probe's call off every later slot start:
		// made on every one, it slowed the fig14-udp benchmark by ~4%.
		e.Misalign.ObserveGroup(idx, e.k.Now(), e.refGroup[r.id])
	}
	bundle := e.popBundle(link.ID, r.inflight)
	m := &r.meta
	m.span = 0
	if e.sp != nil {
		m.span = e.sp.Next()
		for i := range bundle {
			bundle[i].TxSpan = m.span
		}
	}
	m.depth, m.backlog = r.depth, e.queues[link.ID].Len()
	r.inflight, r.link = bundle, link
	f := phy.Frame{Dst: link.Receiver, Rate: e.cfg.Rate, Payload: m, ObsSpan: m.span}
	if len(bundle) > 0 {
		e.DataSends += len(bundle)
		e.emitSlotStart("data", r.id, link, idx, m.span, r.refSpan)
		f.Kind, f.Bytes, f.Duration = phy.Data, e.cfg.VirtualBytes, e.dur.data
		f.Handle, f.NAV = bundle[0].Handle, nav
		e.medium.Transmit(r.id, &f)
		timeout := f.Duration + phy.SIFS + e.dur.ack + 2*phy.SlotTime
		r.ackEv = e.k.After(timeout, r.onAckTimeout).SetSource(sim.SrcMAC)
	} else {
		e.FakeSends++
		e.emitSlotStart("fake", r.id, link, idx, m.span, r.refSpan)
		f.Kind, f.Duration = phy.FakeHeader, e.dur.header
		e.medium.Transmit(r.id, &f)
	}
	r.refSpan = m.span
}

// ackTimeout applies the paper's missed-ACK policy (§3.5). The timer is
// cancelled before the in-flight bundle is replaced, so link is the link
// the timed-out bundle went on.
func (r *radio) ackTimeout() {
	r.ackEv = sim.Event{}
	r.miss()
}

// miss counts the in-flight bundle's ACK as missed and puts the bundle back
// at the head of its queue, one retry older: the next slot for its link
// retransmits it.
func (r *radio) miss() {
	if len(r.inflight) > 0 {
		r.e.AckMisses++
		r.e.requeueBundle(r.link.ID, r.take())
	}
}

// take empties the in-flight bundle, cancelling its ACK timer, and returns
// it (still in the node's buffer until the next open).
func (r *radio) take() []mac.Packet {
	if r.ackEv.Scheduled() {
		r.ackEv.Cancel()
		r.ackEv = sim.Event{}
	}
	bundle := r.inflight
	r.inflight = r.inflight[:0]
	return bundle
}

// ack owes an ACK of data frame f (of the slot with span span), sent one
// SIFS after it ends unless the node is transmitting by then. It returns
// the owed entry: an AP sets the instructions the ACK carries to the
// client whose uplink it acknowledges (Fig 8b); a client's ACK carries
// none. Every ACK waits the same SIFS, so the owed ACKs fall due in the
// order they were owed and one bound callback (sendAck) serves them all.
func (r *radio) ack(f *phy.Frame, span int64) *pendingAck {
	// Reuse the entry stored past the end, with its instructions' storage.
	if len(r.acks) < cap(r.acks) {
		r.acks = r.acks[:len(r.acks)+1]
	} else {
		r.acks = append(r.acks, pendingAck{})
	}
	a := &r.acks[len(r.acks)-1]
	a.dst, a.h, a.span, a.hasIn = f.Src, f.Handle, span, false
	r.e.k.After(phy.SIFS, r.sendAckFn).SetSource(sim.SrcMAC)
	return a
}

// sendAck sends the oldest owed ACK. Its instructions move into ackIn, the
// payload of the node's ACKs, only when it goes on the air: while the node
// transmits, ackIn may be the payload of the frame on the air.
func (r *radio) sendAck() {
	e := r.e
	a := &r.acks[r.ackHead]
	f := phy.Frame{
		Kind: phy.Ack, Dst: a.dst, Bytes: phy.AckBytes,
		Rate: e.cfg.Rate, Duration: e.dur.ack,
		Handle: a.h, ObsSpan: a.span,
	}
	busy := e.medium.Transmitting(r.id)
	if a.hasIn && !busy {
		r.ackIn.set(&a.in)
		f.Payload = &r.ackIn
	}
	if scribbleRecycled {
		a.dst, a.h, a.span = -1, 0, -1
		a.in.scribble()
	}
	if r.ackHead++; r.ackHead == len(r.acks) {
		r.acks, r.ackHead = r.acks[:0], 0
	}
	if !busy {
		e.medium.Transmit(r.id, &f)
	}
}

// atBoundary runs fn at the end-of-slot broadcast offset of the slot that
// started at slotStart, or now if that has passed.
func (r *radio) atBoundary(slotStart sim.Time, fn func()) {
	e := r.e
	e.k.After(max(0, slotStart+e.dur.broadcastOffset-e.k.Now()), fn).SetSource(sim.SrcMAC)
}

// broadcast sends the signature frame that closes slot idx and triggers
// targets (S′ doubles as the slot counter: it carries hint idx+1). It
// reports false, sending nothing, while the node is still transmitting.
// The broadcast becomes the node's causal reference.
func (r *radio) broadcast(idx int, targets []phy.NodeID, rop bool) bool {
	e := r.e
	if e.medium.Transmitting(r.id) {
		return false
	}
	var span int64
	if e.sp != nil {
		span = e.sp.Next()
	}
	e.emitSlotEnd(r.id, idx, span, r.refSpan)
	pl := &r.sig
	pl.Sigs = broadcastSigs(pl.Sigs, targets)
	pl.ROP, pl.SlotHint, pl.ObsSpan, pl.ObsDepth = rop, idx+1, span, r.depth
	e.medium.Transmit(r.id, &phy.Frame{
		Kind: phy.Signature, Dst: phy.Broadcast, Duration: e.dur.sigFrame,
		Payload: pl, ObsSpan: span,
	})
	r.refSpan = span
	return true
}
