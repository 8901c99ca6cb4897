// Package convert implements DOMINO's schedule converter (paper §3.3): it
// turns a strict slot-indexed schedule produced by an arbitrary scheduler
// into a relative schedule in which every slot's transmissions are triggered
// by signature broadcasts from the previous slot.
//
// The conversion is an explicit pass pipeline over a shared *Plan:
//
//	FakeLinkInsert  each slot becomes a maximal cover of the conflict
//	                graph so triggers reach the whole network
//	TriggerAssign   consecutive slots inside the batch are wired
//	                strongest-SNR first (≤ MaxInbound in, ≤ MaxOutbound out)
//	BatchConnect    the retained last slot of the previous batch is wired
//	                to trigger this batch's first slot
//	ROPInsert       polling slots are placed greedily; compatible APs
//	                share one
//
// ConvertPlan runs the pipeline and returns the Plan; Verify checks the
// output invariants.
package convert

import (
	"repro/internal/phy"
	"repro/internal/topo"
)

// Constraints from the paper's USRP measurements: a trigger combining more
// than 4 signatures risks detection failure (Fig 9), and more than 2 inbound
// triggers per link stops paying off (§3.3).
const (
	DefaultMaxInbound  = 2
	DefaultMaxOutbound = 4
)

// Entry is one link's appearance in a relative slot.
type Entry struct {
	Link *topo.Link
	// Fake marks converter-inserted links: the sender transmits only a
	// header (or nothing if its queue is empty) purely to keep the trigger
	// chain alive.
	Fake bool
	// TriggeredBy lists the broadcasting nodes (from the previous slot)
	// whose signature combination includes this link's sender.
	TriggeredBy []phy.NodeID
}

// Broadcast is one node's end-of-slot signature transmission.
type Broadcast struct {
	// From is the broadcasting node (an endpoint of a link active in the
	// slot).
	From phy.NodeID
	// Targets are the next transmitters whose signatures are combined into
	// this broadcast (≤ MaxOutbound).
	Targets []phy.NodeID
}

// RelSlot is one slot of the relative schedule.
type RelSlot struct {
	Entries []Entry
	// Broadcasts to perform at the end of this slot, triggering the next.
	Broadcasts []Broadcast
	// ROPAfter lists APs that execute Rapid OFDM Polling between this slot
	// and the next; when non-empty the broadcasts carry the ROP signature
	// variant and the next slot's transmitters wait one ROP slot.
	ROPAfter []phy.NodeID
}

// Converter carries conversion state across batches (the retained last slot
// that implements batch connection) and drives the pass pipeline.
type Converter struct {
	G           *topo.ConflictGraph
	MaxInbound  int
	MaxOutbound int
	// DisableFakeCover skips fake-link insertion (ablation: chains then only
	// reach the links the strict scheduler picked).
	DisableFakeCover bool

	prev *RelSlot // last slot of the previous batch
	// free holds slots whose storage ConvertPlan's caller handed back
	// (reuse); new slots take it before allocating.
	free []RelSlot
	// coverRot rotates the fake-cover scan order so padded slots don't
	// always favour low link IDs.
	coverRot int

	// tables holds the per-topology precomputed candidate lists and scratch
	// buffers (built lazily on first conversion, see tables.go).
	tables *tables

	// Untriggered counts entries for which no trigger path existed (e.g.
	// across disconnected interference domains). Such entries stay in the
	// schedule — the executing AP free-runs them on its local slot clock,
	// the same mechanism that starts the very first batch.
	Untriggered int
}

// New builds a converter with the paper's constraints.
func New(g *topo.ConflictGraph) *Converter {
	return &Converter{G: g, MaxInbound: DefaultMaxInbound, MaxOutbound: DefaultMaxOutbound}
}

// Reset forgets the retained slot (a fresh first batch: APs start the first
// slot spontaneously).
func (c *Converter) Reset() { c.prev = nil }
