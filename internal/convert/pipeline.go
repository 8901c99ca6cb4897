package convert

import (
	"repro/internal/phy"
	"repro/internal/strict"
	"repro/internal/topo"
)

// Stats are one batch's conversion counters, filled in by the passes.
type Stats struct {
	// Slots is the relative-schedule length.
	Slots int
	// RealEntries / FakeEntries split the slot entries by origin: scheduled
	// by the strict scheduler vs inserted for trigger-chain cover.
	RealEntries int
	FakeEntries int
	// Triggers counts every trigger assignment, backups and the boundary
	// pair included; BackupTriggers counts assignments beyond each entry's
	// first; BoundaryTriggers counts assignments wired across the batch
	// boundary (retained slot → slot 0).
	Triggers         int
	BackupTriggers   int
	BoundaryTriggers int
	// Untriggered counts real entries left with no trigger path.
	Untriggered int
	// ROPSlots counts slots followed by a polling window; ROPShared counts
	// APs that joined an already-inserted window; ROPForced counts APs
	// force-placed on slot 0 because no slot could trigger them.
	ROPSlots  int
	ROPShared int
	ROPForced int
	// PollTriggers counts poll reference signatures planted in broadcasts.
	PollTriggers int
}

// Plan carries one batch's conversion through the pass pipeline: the strict
// input, the relative schedule under construction, and the counters each
// pass fills in. Passes mutate the Plan in order; Verify checks the result.
type Plan struct {
	// Batch is the strict scheduler output being converted (input to
	// FakeLinkInsert).
	Batch strict.Schedule
	// PollAPs lists the APs that must execute ROP during this batch.
	PollAPs []phy.NodeID
	// Slots is the relative schedule under construction.
	Slots []RelSlot
	// Prev is the retained last slot of the previous batch (nil on the
	// first batch); BatchConnect wires its broadcasts to trigger slot 0.
	Prev *RelSlot
	// ForcedROP lists APs whose polling window was force-placed on slot 0
	// without a compatibility check (the fallback when no slot can trigger
	// the AP); Verify exempts these pairings from the AP-conflict invariant.
	ForcedROP []phy.NodeID
	Stats     Stats

	// Conversion parameters frozen at ConvertPlan time, for Verify.
	g                       *topo.ConflictGraph
	maxInbound, maxOutbound int
}

// ConvertPlan turns one strict batch into a relative schedule by running the
// four passes in order on a fresh plan, and returns the full plan (slots,
// per-pass stats, verification inputs). pollAPs lists the APs that must
// execute ROP during this batch (normally all APs, once per batch). The
// retained last slot of the previous batch triggers this batch's first
// slot; slot 0 of the very first batch has no triggers and is started by
// the APs directly. TriggerAssign before BatchConnect is
// equivalent to the historical interleaved order because each
// consecutive-slot trigger pair touches disjoint state: a slot's broadcasts
// are written only when it is the pair's first element, and its entries'
// triggers only when it is the second.
//
// reuse lists slots of earlier plans that the caller will never read again,
// the retained slot excepted: the converter takes over their storage
// (entries, triggers, broadcasts and poll lists) for this and later plans,
// so a long run converts without allocating per slot. The listed slots are
// left empty.
func (c *Converter) ConvertPlan(batch strict.Schedule, pollAPs []phy.NodeID, reuse ...*RelSlot) *Plan {
	for _, s := range reuse {
		c.free = append(c.free, *s)
		*s = RelSlot{}
	}
	p := &Plan{
		Batch: batch, PollAPs: pollAPs, Prev: c.prev,
		g: c.G, maxInbound: c.MaxInbound, maxOutbound: c.MaxOutbound,
	}
	if len(batch) > 0 {
		p.Slots = make([]RelSlot, 0, len(batch))
	}
	FakeLinkInsert(c, p)
	TriggerAssign(c, p)
	BatchConnect(c, p)
	ROPInsert(c, p)
	c.Untriggered += p.Stats.Untriggered
	if len(p.Slots) > 0 {
		// Batch connection, retaining side: keep the last slot itself. Its
		// Broadcasts are still empty — the next batch's conversion fills
		// them in, and because the engine holds the same slot, the triggers
		// become visible to it before the slot's end.
		c.prev = &p.Slots[len(p.Slots)-1]
	}
	return p
}
