// Client-side node logic: clients know nothing of the schedule — they send
// when triggered, broadcast per the AP's S1 instructions, and answer polls.

package domino

import (
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

type clientNode struct {
	e      *Engine
	id     phy.NodeID
	ap     phy.NodeID
	uplink *topo.Link
	asleep bool

	armed    *armedTx
	lastHint int

	// inflight is the uplink bundle awaiting its ACK (empty when none);
	// its backing array is the client's reusable bundle buffer.
	inflight []mac.Packet
	txStart  sim.Time
	ackEv    sim.Event
	// onAckTimeout is ackTimeout bound once, so arming the ACK timer
	// allocates no method value.
	onAckTimeout func()

	// refSpan/depth mirror apNode: the causal span of the client's current
	// time reference and its trigger-cascade depth (zero with spans off).
	refSpan int64
	depth   int
}

// CarrierChanged implements phy.Listener.
func (c *clientNode) CarrierChanged(bool) {}

// FrameReceived implements phy.Listener.
func (c *clientNode) FrameReceived(f *phy.Frame, ok bool, det *phy.SignatureDetection) {
	e := c.e
	if c.asleep {
		return // radio powered down
	}
	if !ok {
		if f.Kind == phy.Signature {
			if pl, good := f.Payload.(*phy.SignaturePayload); good && containsInt(pl.Sigs, int(c.id)) {
				e.triggerMiss(c.id, pl.SlotHint)
			}
		}
		return
	}
	switch f.Kind {
	case phy.Signature:
		pl := f.Payload.(*phy.SignaturePayload)
		if containsInt(pl.Sigs, int(c.id)) || e.falseTrigger() {
			c.onTrigger(pl)
		}
	case phy.Data, phy.FakeHeader:
		if f.Dst != c.id {
			return
		}
		m := f.Payload.(*meta)
		slotStart := e.k.Now() - f.AirTime()
		// The received downlink slot becomes this client's causal reference.
		c.refSpan, c.depth = m.span, m.depth
		if f.Kind == phy.Data {
			src, h := f.Src, f.Handle
			e.k.After(phy.SIFS, func() {
				if e.medium.Transmitting(c.id) {
					return
				}
				e.medium.Transmit(c.id, &phy.Frame{
					Kind: phy.Ack, Dst: src, Bytes: phy.AckBytes,
					Rate: e.cfg.Rate, Duration: e.cfg.ackAirtime(),
					Handle: h, ObsSpan: m.span,
				})
			})
		}
		// The decoded frame carries the S1 instructions and the slot
		// reference: broadcast at the slot's end.
		c.scheduleBroadcast(m.slot, m.clientSigs, m.rop, m.selfNext, m.nextWait, slotStart)
	case phy.Ack:
		if f.Dst != c.id {
			return
		}
		am := f.Payload.(*ackMeta)
		if len(c.inflight) > 0 && f.Handle == c.inflight[0].Handle {
			if c.ackEv.Scheduled() {
				c.ackEv.Cancel()
				c.ackEv = sim.Event{}
			}
			bundle := c.inflight
			c.inflight = c.inflight[:0]
			e.deliverBundle(bundle)
		}
		// The AP's ACK carries this client's broadcast duty (Fig 8b).
		c.scheduleBroadcast(am.slot, am.clientSigs, am.rop, am.selfNext, am.nextWait, c.txStart)
	}
}

func (c *clientNode) scheduleBroadcast(slotIdx int, targets []phy.NodeID, ropFlag, selfNext bool, nextWait sim.Time, slotStart sim.Time) {
	e := c.e
	if len(targets) == 0 && !selfNext {
		return
	}
	at := slotStart + e.cfg.broadcastOffset()
	delay := at - e.k.Now()
	if delay < 0 {
		delay = 0
	}
	e.k.After(delay, func() {
		if len(targets) > 0 && !e.medium.Transmitting(c.id) {
			var bSpan int64
			if e.sp != nil {
				bSpan = e.sp.Next()
			}
			e.emitSlotEnd(c.id, slotIdx, bSpan, c.refSpan)
			e.medium.Transmit(c.id, &phy.Frame{
				Kind: phy.Signature, Dst: phy.Broadcast, Duration: e.cfg.sigFrameDuration(),
				Payload: &phy.SignaturePayload{Sigs: broadcastSigs(targets), Start: true, ROP: ropFlag,
					SlotHint: slotIdx + 1, ObsSpan: bSpan, ObsDepth: c.depth},
				ObsSpan: bSpan,
			})
			c.refSpan = bSpan
		}
		if selfNext {
			// The AP told us we transmit in the next slot: the end of this
			// boundary exchange is our reference (we may be deaf to the
			// broadcast carrying our own signature while sending ours).
			e.k.After(e.cfg.sigFrameDuration(), func() {
				if c.armed != nil {
					return
				}
				c.lastHint = slotIdx + 1
				c.armTx(nextWait)
			})
		}
	})
}

// onTrigger: the client's own signature arrived — transmit on the uplink.
func (c *clientNode) onTrigger(pl *phy.SignaturePayload) {
	e := c.e
	c.refSpan, c.depth = e.noteTrigger(c.id, pl)
	delay := sim.Time(0)
	if pl.ROP {
		delay = e.pollGap()
	}
	c.lastHint = pl.SlotHint
	if c.armed != nil {
		if e.k.Now()-c.armed.at < e.cfg.slotDuration()/2 {
			c.armed.ev.Cancel()
			c.armTx(delay)
		}
		return
	}
	c.armTx(delay)
}

func (c *clientNode) armTx(delay sim.Time) {
	tx := &armedTx{at: c.e.k.Now()}
	tx.ev = c.e.k.After(delay, func() {
		c.armed = nil
		c.sendUplink()
	})
	c.armed = tx
}

func (c *clientNode) sendUplink() {
	e := c.e
	if c.uplink == nil || e.medium.Transmitting(c.id) {
		return
	}
	if len(c.inflight) > 0 {
		if c.ackEv.Scheduled() {
			c.ackEv.Cancel()
			c.ackEv = sim.Event{}
		}
		prev := c.inflight
		c.inflight = c.inflight[:0]
		e.AckMisses++
		e.requeueBundle(c.uplink.ID, prev)
	}
	now := e.k.Now()
	c.txStart = now
	if e.Misalign != nil {
		e.Misalign.ObserveGroup(c.lastHint, now, e.refGroup[c.id])
	}
	bundle := e.popBundle(c.uplink.ID, c.inflight)
	var slotSpan int64
	if e.sp != nil {
		slotSpan = e.sp.Next()
		for i := range bundle {
			bundle[i].TxSpan = slotSpan
		}
	}
	c.inflight = bundle
	if len(bundle) > 0 {
		e.DataSends += len(bundle)
		e.emitSlotStart("data", c.id, c.uplink, c.lastHint, slotSpan, c.refSpan)
		dur := e.cfg.dataAirtime()
		e.medium.Transmit(c.id, &phy.Frame{
			Kind: phy.Data, Dst: c.ap, Bytes: e.cfg.VirtualBytes,
			Rate: e.cfg.Rate, Duration: dur,
			Payload: &meta{backlog: e.queues[c.uplink.ID].Len(),
				span: slotSpan, depth: c.depth},
			Handle: bundle[0].Handle, ObsSpan: slotSpan,
		})
		timeout := dur + phy.SIFS + e.cfg.ackAirtime() + 2*phy.SlotTime
		c.ackEv = e.k.After(timeout, c.onAckTimeout)
	} else {
		e.FakeSends++
		e.emitSlotStart("fake", c.id, c.uplink, c.lastHint, slotSpan, c.refSpan)
		e.medium.Transmit(c.id, &phy.Frame{
			Kind: phy.FakeHeader, Dst: c.ap, Bytes: 0,
			Rate: e.cfg.Rate, Duration: e.cfg.fakeHeaderAirtime(),
			Payload: &meta{span: slotSpan, depth: c.depth}, ObsSpan: slotSpan,
		})
	}
	c.refSpan = slotSpan
}

func (c *clientNode) ackTimeout() {
	c.ackEv = sim.Event{}
	if len(c.inflight) == 0 {
		return
	}
	bundle := c.inflight
	c.inflight = c.inflight[:0]
	c.e.AckMisses++
	c.e.requeueBundle(c.uplink.ID, bundle)
}
