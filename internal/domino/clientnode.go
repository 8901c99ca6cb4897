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
	asleep   bool
	lastHint int
	// txStart is when the client's latest uplink slot started: the
	// reference of the broadcast duty its ACK carries.
	txStart sim.Time
}

// CarrierChanged implements phy.Listener.
func (c *clientNode) CarrierChanged(bool) {}

// FrameReceived implements phy.Listener.
func (c *clientNode) FrameReceived(f *phy.Frame, ok bool, det *phy.SignatureDetection) {
	if c.asleep {
		return // radio powered down
	}
	c.radio.FrameReceived(f, ok, det)
}

// onSlot handles downlink data or a fake header: it ACKs data, and the
// frame's S1 instructions and slot reference set its end-of-slot duty.
func (c *clientNode) onSlot(f *phy.Frame, m *meta) {
	slotStart := c.e.k.Now() - f.AirTime()
	// The received downlink slot becomes this client's causal reference.
	c.refSpan, c.depth = m.span, m.depth
	if f.Kind == phy.Data {
		c.ack(f, m.span, nil)
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
	e := c.e
	if len(in.clientSigs) == 0 && !in.selfNext {
		return
	}
	c.atBoundary(slotStart, func() {
		if len(in.clientSigs) > 0 {
			c.broadcast(in.slot, in.clientSigs, in.rop)
		}
		if in.selfNext {
			// The AP told us we transmit in the next slot: the end of this
			// boundary exchange is our reference (we may be deaf to the
			// broadcast carrying our own signature while sending ours).
			e.k.After(e.cfg.sigFrameDuration(), func() {
				if c.armed != nil {
					return
				}
				c.lastHint = in.slot + 1
				c.arm(action{}, in.nextWait)
			})
		}
	})
}

// onTrigger: the client's own signature arrived — transmit on the uplink.
func (c *clientNode) onTrigger(pl *phy.SignaturePayload, delay sim.Time) {
	c.lastHint = pl.SlotHint
	if c.armed != nil {
		if c.e.k.Now()-c.armed.at < c.e.cfg.slotDuration()/2 {
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
	c.open(c.link, c.lastHint, &meta{}, 0)
}
