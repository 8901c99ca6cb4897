package convert

import (
	"slices"

	"repro/internal/phy"
	"repro/internal/strict"
	"repro/internal/topo"
)

// FakeLinkInsert expands every strict slot to a maximal cover of the
// conflict graph (paper §3.3 step 1): converter-inserted fake links keep the
// trigger chain reaching the whole network. With DisableFakeCover the strict
// slots pass through unchanged.
func FakeLinkInsert(c *Converter, p *Plan) {
	for _, slot := range p.Batch {
		p.Slots = append(p.Slots, c.newSlot())
		c.buildSlot(&p.Slots[len(p.Slots)-1], slot)
	}
	p.Stats.Slots = len(p.Slots)
	for i := range p.Slots {
		for _, e := range p.Slots[i].Entries {
			if e.Fake {
				p.Stats.FakeEntries++
			} else {
				p.Stats.RealEntries++
			}
		}
	}
}

// newSlot returns an empty slot, on recycled storage when there is some.
func (c *Converter) newSlot() RelSlot {
	n := len(c.free) - 1
	if n < 0 {
		return RelSlot{}
	}
	s := c.free[n]
	c.free = c.free[:n]
	return RelSlot{Entries: s.Entries[:0], Broadcasts: s.Broadcasts[:0], ROPAfter: s.ROPAfter[:0]}
}

// grow extends s by one element and returns it. When s has room the
// element is the one already stored past its length, from a recycled slot,
// whose own slices the caller reuses. When s must grow, every new element
// gets an empty node list (*list) of capacity each, all carved out of one
// block. The lists stay within the converter's bounds (MaxInbound triggers
// per entry, MaxOutbound targets per broadcast), so filling them allocates
// nothing more.
func grow[T any](s []T, list func(*T) *[]phy.NodeID, each int) ([]T, *T) {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*cap(s), 4)), s...)
		fresh := s[len(s):cap(s)]
		block := make([]phy.NodeID, len(fresh)*each)
		for i := range fresh {
			*list(&fresh[i]) = block[i*each : i*each : (i+1)*each]
		}
	}
	s = s[:len(s)+1]
	return s, &s[len(s)-1]
}

// entryTriggers and broadcastTargets name the node lists grow sizes.
func entryTriggers(e *Entry) *[]phy.NodeID        { return &e.TriggeredBy }
func broadcastTargets(b *Broadcast) *[]phy.NodeID { return &b.Targets }

// buildSlot expands a strict slot to a maximal cover with fake links,
// scanning candidates from a rotating start for fairness, into the empty
// slot dst.
func (c *Converter) buildSlot(dst *RelSlot, slot strict.Slot) {
	t := c.tab()
	t.realEpoch++
	for _, id := range slot {
		t.realStamp[id] = t.realEpoch
	}
	cover := []int(slot)
	if !c.DisableFakeCover {
		n := len(c.G.Links)
		order := t.orderBuf[:n]
		for i := range order {
			order[i] = (i + c.coverRot) % n
		}
		c.coverRot = (c.coverRot + 1) % n
		cover = c.G.MaximalIndependentSetInto(t.coverBuf[:0], t.blockedBuf, slot, order)
		t.coverBuf = cover
	}
	for _, id := range cover {
		var en *Entry
		dst.Entries, en = grow(dst.Entries, entryTriggers, c.MaxInbound)
		en.Link, en.Fake, en.TriggeredBy = c.G.Links[id], t.realStamp[id] != t.realEpoch, en.TriggeredBy[:0]
	}
}

// TriggerAssign wires every consecutive slot pair inside the batch (paper
// §3.3 step 2): each slot's transmitters are triggered by signature
// broadcasts from the previous slot, strongest-SNR first, at most MaxInbound
// triggers per link and MaxOutbound signatures per broadcasting node.
func TriggerAssign(c *Converter, p *Plan) {
	for i := 1; i < len(p.Slots); i++ {
		c.assignTriggers(&p.Slots[i-1], &p.Slots[i], &p.Stats)
	}
}

// BatchConnect wires the batch boundary (paper §3.3 step 3): the retained
// last slot of the previous batch triggers this batch's slot 0. On the very
// first batch there is nothing to connect — the APs start slot 0
// spontaneously.
func BatchConnect(c *Converter, p *Plan) {
	if p.Prev == nil || len(p.Slots) == 0 {
		return
	}
	before := p.Stats.Triggers
	c.assignTriggers(p.Prev, &p.Slots[0], &p.Stats)
	p.Stats.BoundaryTriggers = p.Stats.Triggers - before
}

// assignTriggers wires the links of next to broadcasters in prev: for each
// link, pick the candidate trigger link whose better endpoint has the
// highest SNR at the link's sender; repeat for a backup trigger. Outbound
// capacity is per broadcasting node.
//
// The scan runs over the precomputed per-target candidate lists (strongest
// RSS first, trigger floor already applied); equal-RSS runs break toward the
// earliest candidate in first-occurrence order, reproducing the historical
// linear argmax exactly.
func (c *Converter) assignTriggers(prev, next *RelSlot, st *Stats) {
	t := c.tab()
	outbound := t.outbound
	targets := t.targets
	mark := t.fromMark
	touched := t.touched[:0]

	// Preserve broadcasts already planted on prev (ROP poll triggers added
	// when prev was the last slot of the previous batch).
	for _, b := range prev.Broadcasts {
		n := b.From
		if !mark[n] {
			mark[n] = true
			touched = append(touched, n)
		}
		outbound[n] += len(b.Targets)
		targets[n] = append(targets[n], b.Targets...)
	}

	// Candidate broadcasters in prev: both endpoints of every entry, in
	// first-occurrence order. candIdx doubles as the dedup set and records
	// each node's rank for tie-breaking.
	cands := t.candsBuf[:0]
	candIdx := t.candIdx
	for _, e := range prev.Entries {
		s, r := e.Link.Sender, e.Link.Receiver
		if candIdx[s] < 0 {
			candIdx[s] = int32(len(cands))
			cands = append(cands, s)
		}
		if candIdx[r] < 0 {
			candIdx[r] = int32(len(cands))
			cands = append(cands, r)
		}
	}

	inbound := t.inboundBuf[:0]
	for range next.Entries {
		inbound = append(inbound, 0)
	}

	// Two rounds: primary triggers first, then backups.
	for round := 0; round < c.MaxInbound; round++ {
		for i := range next.Entries {
			if inbound[i] != round {
				continue // did not get a trigger in an earlier round
			}
			target := next.Entries[i].Link.Sender
			dl := t.candByTarget[target]
			rs := t.candRSS[target]
			best := int32(-1)
			bestRSS := 0.0
			for k := 0; k < len(dl); k++ {
				if best >= 0 && rs[k] < bestRSS {
					break // sorted: nothing stronger follows
				}
				n := dl[k]
				ci := candIdx[n]
				if ci < 0 || outbound[n] >= c.MaxOutbound {
					continue
				}
				already := false
				for _, tb := range next.Entries[i].TriggeredBy {
					if tb == n {
						already = true
						break
					}
				}
				if already {
					continue
				}
				if best < 0 {
					best = ci
					bestRSS = rs[k]
				} else if ci < best {
					best = ci
				}
			}
			if best < 0 {
				continue
			}
			bn := cands[best]
			if !mark[bn] {
				mark[bn] = true
				touched = append(touched, bn)
			}
			outbound[bn]++
			inbound[i]++
			next.Entries[i].TriggeredBy = append(next.Entries[i].TriggeredBy, bn)
			targets[bn] = append(targets[bn], target)
			st.Triggers++
			if round > 0 {
				st.BackupTriggers++
			}
		}
	}

	for i, e := range next.Entries {
		if inbound[i] == 0 && !e.Fake {
			st.Untriggered++
		}
	}

	// Deterministic broadcast list (the touched nodes are distinct).
	slices.Sort(touched)
	prev.Broadcasts = prev.Broadcasts[:0]
	for _, n := range touched {
		var b *Broadcast
		prev.Broadcasts, b = grow(prev.Broadcasts, broadcastTargets, c.MaxOutbound)
		b.From, b.Targets = n, append(b.Targets[:0], targets[n]...)
	}

	// Reset scratch via the touched lists only.
	for _, n := range cands {
		candIdx[n] = -1
	}
	for _, n := range touched {
		outbound[n] = 0
		targets[n] = targets[n][:0]
		mark[n] = false
	}
	t.candsBuf = cands[:0]
	t.touched = touched[:0]
	t.inboundBuf = inbound[:0]
}

// ROPInsert greedily places polling slots (paper §3.3 step 4): for each AP,
// find the earliest slot whose links can trigger the AP; share an
// already-inserted ROP slot when the APs don't conflict. APs with no
// triggerable slot are force-placed on slot 0 and recorded in
// Plan.ForcedROP.
func ROPInsert(c *Converter, p *Plan) {
	t := c.tab()
	nw := t.nodeWords
	// Per-slot trigger-reach masks: the union of the entries' link masks.
	// Entries never change during this pass, so one build serves every AP.
	need := len(p.Slots) * nw
	if cap(t.slotMaskBuf) < need {
		t.slotMaskBuf = make([]uint64, need)
	}
	masks := t.slotMaskBuf[:need]
	for i := range masks {
		masks[i] = 0
	}
	for i := range p.Slots {
		m := masks[i*nw : (i+1)*nw]
		for _, e := range p.Slots[i].Entries {
			lm := t.linkTrigMask[e.Link.ID]
			for w := range lm {
				m[w] |= lm[w]
			}
		}
	}
	for _, ap := range p.PollAPs {
		w, bit := int(ap)>>6, uint64(1)<<(uint(ap)&63)
		placed := false
		for i := range p.Slots {
			if masks[i*nw+w]&bit == 0 {
				continue // no link in the slot can trigger the AP
			}
			if len(p.Slots[i].ROPAfter) == 0 {
				p.Slots[i].ROPAfter = append(p.Slots[i].ROPAfter, ap)
				c.addPollTrigger(&p.Slots[i], ap, &p.Stats)
				placed = true
				break
			}
			// Try to share the existing ROP slot.
			share := true
			for _, other := range p.Slots[i].ROPAfter {
				if c.G.APConflict(ap, other) {
					share = false
					break
				}
			}
			if share {
				p.Slots[i].ROPAfter = append(p.Slots[i].ROPAfter, ap)
				c.addPollTrigger(&p.Slots[i], ap, &p.Stats)
				p.Stats.ROPShared++
				placed = true
				break
			}
		}
		if !placed && len(p.Slots) > 0 {
			// Fall back to the first slot; polling beats starving the AP's
			// clients even if the trigger is weak.
			p.Slots[0].ROPAfter = append(p.Slots[0].ROPAfter, ap)
			c.addPollTrigger(&p.Slots[0], ap, &p.Stats)
			p.ForcedROP = append(p.ForcedROP, ap)
			p.Stats.ROPForced++
		}
	}
	for i := range p.Slots {
		if len(p.Slots[i].ROPAfter) > 0 {
			p.Stats.ROPSlots++
		}
	}
}

// addPollTrigger ensures the polling AP's own signature rides in the slot's
// end-of-slot broadcasts so the AP has a time reference for its poll. An AP
// already active (or broadcasting) in the slot needs none.
func (c *Converter) addPollTrigger(slot *RelSlot, ap phy.NodeID, st *Stats) {
	for _, e := range slot.Entries {
		if e.Link.Sender == ap || e.Link.Receiver == ap {
			return // the AP participates in the slot: it knows the boundary
		}
	}
	// Pick the strongest endpoint with spare outbound capacity.
	best := phy.NodeID(-1)
	bestRSS := 0.0
	for _, e := range slot.Entries {
		for _, n := range [2]phy.NodeID{e.Link.Sender, e.Link.Receiver} {
			if broadcastLoad(slot, n) >= c.MaxOutbound {
				continue
			}
			rss := c.G.Net.RSS[n][ap]
			if rss < topo.TriggerFloorDBm {
				continue
			}
			if best == -1 || rss > bestRSS {
				best = n
				bestRSS = rss
			}
		}
	}
	if best == -1 {
		return // unreachable AP: it will free-run its poll (engine fallback)
	}
	for i := range slot.Broadcasts {
		if slot.Broadcasts[i].From == best {
			for _, tgt := range slot.Broadcasts[i].Targets {
				if tgt == ap {
					return
				}
			}
			slot.Broadcasts[i].Targets = append(slot.Broadcasts[i].Targets, ap)
			st.PollTriggers++
			return
		}
	}
	var b *Broadcast
	slot.Broadcasts, b = grow(slot.Broadcasts, broadcastTargets, c.MaxOutbound)
	b.From, b.Targets = best, append(b.Targets[:0], ap)
	st.PollTriggers++
}

// broadcastLoad returns how many signatures n's end-of-slot broadcast in
// slot carries (a node broadcasts at most once per slot).
func broadcastLoad(slot *RelSlot, n phy.NodeID) int {
	for _, b := range slot.Broadcasts {
		if b.From == n {
			return len(b.Targets)
		}
	}
	return 0
}
