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
// as time reference", §3.4).
type armedTx struct {
	act action
	ev  sim.Event
	at  sim.Time
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

	armed *armedTx
	// armedSlots holds the slot of every armed transmission whose event has
	// not fired yet: armed's, and one it was armed over (an AP's
	// checkPollSelf arms without checking), which still fires. An AP's log
	// floor counts them (Engine.log).
	armedSlots []int

	// refSpan/depth track the causal span of the node's current time
	// reference (last trigger, own or received slot, or own broadcast) and
	// its trigger-cascade depth; both stay zero when spans are disabled.
	refSpan int64
	depth   int
}

// init binds the radio to node id of e; role is the node embedding it.
func (r *radio) init(e *Engine, id phy.NodeID, role role) {
	r.e, r.id, r.role = e, id, role
	r.onAckTimeout = r.ackTimeout
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
		r.role.onSlot(f, f.Payload.(*meta))
	case phy.Ack:
		if len(r.inflight) > 0 && f.Handle == r.inflight[0].Handle {
			e.deliverBundle(r.take())
		}
		r.role.onAck(f)
	}
}

// arm schedules act's transmission delay after the current time reference.
func (r *radio) arm(act action, delay sim.Time) {
	tx := &armedTx{act: act, at: r.e.k.Now()}
	r.armedSlots = append(r.armedSlots, act.slot)
	tx.ev = r.e.k.After(delay, func() {
		r.disarm(act.slot)
		r.armed = nil
		r.role.send(act)
	})
	r.armed = tx
}

// rearm moves the armed transmission to delay after the current time
// reference: a fresh trigger for it.
func (r *radio) rearm(delay sim.Time) {
	r.armed.ev.Cancel()
	r.disarm(r.armed.act.slot)
	r.arm(r.armed.act, delay)
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
// m carries the receiver's instructions; open adds the slot's span, the
// sender's depth and its remaining backlog. The slot becomes the node's
// causal reference.
func (r *radio) open(link *topo.Link, idx int, m *meta, nav sim.Time) {
	e := r.e
	if e.Misalign != nil {
		e.Misalign.ObserveGroup(idx, e.k.Now(), e.refGroup[r.id])
	}
	bundle := e.popBundle(link.ID, r.inflight)
	if e.sp != nil {
		m.span = e.sp.Next()
		for i := range bundle {
			bundle[i].TxSpan = m.span
		}
	}
	m.depth, m.backlog = r.depth, e.queues[link.ID].Len()
	r.inflight, r.link = bundle, link
	f := &phy.Frame{Dst: link.Receiver, Rate: e.cfg.Rate, Payload: m, ObsSpan: m.span}
	if len(bundle) > 0 {
		e.DataSends += len(bundle)
		e.emitSlotStart("data", r.id, link, idx, m.span, r.refSpan)
		f.Kind, f.Bytes, f.Duration = phy.Data, e.cfg.VirtualBytes, e.cfg.dataAirtime()
		f.Handle, f.NAV = bundle[0].Handle, nav
		e.medium.Transmit(r.id, f)
		timeout := f.Duration + phy.SIFS + e.cfg.ackAirtime() + 2*phy.SlotTime
		r.ackEv = e.k.After(timeout, r.onAckTimeout)
	} else {
		e.FakeSends++
		e.emitSlotStart("fake", r.id, link, idx, m.span, r.refSpan)
		f.Kind, f.Duration = phy.FakeHeader, e.cfg.fakeHeaderAirtime()
		e.medium.Transmit(r.id, f)
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

// ack acknowledges data frame f (of the slot with span span) one SIFS after
// it ends, unless the node is transmitting by then. payload rides on the
// ACK: the AP's instructions for the client whose uplink it acknowledges
// (Fig 8b); nil from a client.
func (r *radio) ack(f *phy.Frame, span int64, payload any) {
	e := r.e
	src, h := f.Src, f.Handle
	e.k.After(phy.SIFS, func() {
		if e.medium.Transmitting(r.id) {
			return
		}
		e.medium.Transmit(r.id, &phy.Frame{
			Kind: phy.Ack, Dst: src, Bytes: phy.AckBytes,
			Rate: e.cfg.Rate, Duration: e.cfg.ackAirtime(), Payload: payload,
			Handle: h, ObsSpan: span,
		})
	})
}

// atBoundary runs fn at the end-of-slot broadcast offset of the slot that
// started at slotStart, or now if that has passed.
func (r *radio) atBoundary(slotStart sim.Time, fn func()) {
	e := r.e
	e.k.After(max(0, slotStart+e.cfg.broadcastOffset()-e.k.Now()), fn)
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
	e.medium.Transmit(r.id, &phy.Frame{
		Kind: phy.Signature, Dst: phy.Broadcast, Duration: e.cfg.sigFrameDuration(),
		Payload: &phy.SignaturePayload{Sigs: broadcastSigs(targets), Start: true, ROP: rop,
			SlotHint: idx + 1, ObsSpan: span, ObsDepth: r.depth},
		ObsSpan: span,
	})
	r.refSpan = span
	return true
}
