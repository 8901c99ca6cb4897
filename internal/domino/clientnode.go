// Client-side node logic: clients know nothing of the schedule — they send
// when triggered, broadcast per the AP's S1 instructions, and answer polls.

package domino

import (
	"repro/internal/phy"
	"repro/internal/sim"
)

// clientNode is a client: its radio's link is its uplink.
type clientNode struct {
	radio
	lastHint int
	// txStart is when the client's latest uplink slot started: the
	// reference of the broadcast duty its ACK carries.
	txStart sim.Time
	// duties recycles the records of the client's end-of-slot duties.
	duties []*clientDuty
}

// clientDuty is a client's pending end-of-slot duty: the instructions it
// carries out, copied out of the frame that brought them (the payload is
// valid only during FrameReceived). boundaryFn and selfArmFn are its two
// steps, bound once when the record is made.
type clientDuty struct {
	c                     *clientNode
	in                    instr
	boundaryFn, selfArmFn func()
}

// CarrierChanged implements phy.Listener.
func (c *clientNode) CarrierChanged(bool) {}

// onSlot handles downlink data or a fake header: it ACKs data, and the
// frame's S1 instructions and slot reference set its end-of-slot duty.
func (c *clientNode) onSlot(f *phy.Frame, m *meta) {
	slotStart := c.e.k.Now() - f.AirTime()
	// The received downlink slot becomes this client's causal reference.
	c.refSpan, c.depth = m.span, m.depth
	if f.Kind == phy.Data {
		c.ack(f, m.span)
	}
	c.scheduleBroadcast(&m.instr, slotStart)
}

// onAck: the AP's ACK carries this client's broadcast duty (Fig 8b).
func (c *clientNode) onAck(f *phy.Frame) {
	c.scheduleBroadcast(f.Payload.(*instr), c.txStart)
}

// scheduleBroadcast carries out in's end-of-slot duties for the slot that
// started at slotStart.
func (c *clientNode) scheduleBroadcast(in *instr, slotStart sim.Time) {
	if len(in.clientSigs) == 0 && !in.selfNext {
		return
	}
	var d *clientDuty
	if n := len(c.duties) - 1; n >= 0 {
		d = c.duties[n]
		c.duties = c.duties[:n]
	} else {
		d = &clientDuty{c: c}
		d.boundaryFn, d.selfArmFn = d.boundary, d.selfArm
	}
	d.in.set(in)
	c.atBoundary(slotStart, d.boundaryFn)
}

// boundary broadcasts the signatures the client was told to, at the slot's
// end.
func (d *clientDuty) boundary() {
	c, in := d.c, &d.in
	if len(in.clientSigs) > 0 {
		c.broadcast(in.slot, in.clientSigs, in.rop)
	}
	if in.selfNext {
		// The AP told us we transmit in the next slot: the end of this
		// boundary exchange is our reference (we may be deaf to the
		// broadcast carrying our own signature while sending ours).
		c.e.k.After(c.e.dur.sigFrame, d.selfArmFn).SetSource(sim.SrcMAC)
		return
	}
	d.free()
}

// selfArm arms the client's next-slot uplink from the end of the boundary
// exchange, unless a trigger armed it already.
func (d *clientDuty) selfArm() {
	c, slot, wait := d.c, d.in.slot, d.in.nextWait
	d.free()
	if c.armed != nil {
		return
	}
	c.lastHint = slot + 1
	c.arm(action{}, wait)
}

// free returns the duty's record to its client.
func (d *clientDuty) free() {
	if scribbleRecycled {
		d.in.scribble()
	}
	d.c.duties = append(d.c.duties, d)
}

// onTrigger: the client's own signature arrived — transmit on the uplink.
func (c *clientNode) onTrigger(pl *phy.SignaturePayload, delay sim.Time) {
	c.lastHint = pl.SlotHint
	if c.armed != nil {
		if c.e.k.Now()-c.armed.at < c.e.dur.slot/2 {
			c.rearm(delay)
		}
		return
	}
	c.arm(action{}, delay)
}

// send opens the uplink slot the client was triggered for.
func (c *clientNode) send(action) {
	if c.link == nil || !c.ready() {
		return
	}
	c.txStart = c.e.k.Now()
	c.meta.instr = instr{} // a client's frames carry no instructions
	c.open(c.link, c.lastHint, 0)
}
