// Package obs is the simulation's observability layer: typed trace records,
// a cheap metrics registry, an NDJSON exporter, and the per-run airtime
// accounting that explains *why* a scheme wins (fewer collisions, no backoff
// idle, unbroken trigger chains) rather than just reporting end-of-run
// aggregates.
//
// Design rules:
//
//   - Zero overhead when disabled. Every emission site guards with a single
//     nil check on a concrete pointer or interface field; no record is built
//     unless a tracer is installed. The disabled cost is benchmark-pinned
//     (BenchmarkKernel, BenchmarkMetric, TestOnEventNilHookZeroAllocs).
//   - Deterministic when enabled. Records are emitted from the single-threaded
//     event loop in event order, and the NDJSON encoding is hand-rolled with
//     a fixed field order, so identical seeds produce byte-identical traces.
//     Parallel drivers give each run its own shard and write the shards in
//     run order, preserving the contract at any worker count.
//   - Layers below obs stay obs-agnostic. sim, phy and mac expose tiny local
//     hooks (Kernel.OnEvent, Medium.SetProbe, Queue.OnDepth); obs implements
//     them. Protocol engines (dcf, domino, poll, gold) emit through a Tracer
//     field directly.
package obs

import "repro/internal/sim"

// Kind enumerates the trace record types.
type Kind uint8

const (
	// KindRunStart opens one simulation run: Value is the seed, Aux the
	// scheme name. In merged multi-run traces it delimits runs.
	KindRunStart Kind = iota
	// KindRunEnd closes a run: At is the run duration, Value the collision
	// count observed by the medium probe.
	KindRunEnd
	// KindSlotStart marks a DOMINO slot owner starting its transmission:
	// Slot is the global slot index, Node the sender, Aux "data" or "fake".
	KindSlotStart
	// KindSlotEnd marks the end-of-slot signature broadcast that closes
	// Slot and triggers the next owners.
	KindSlotEnd
	// KindTrigger records a signature trigger a node detected for its own
	// slot (OK=true always; misses are KindTriggerMiss).
	KindTrigger
	// KindTriggerMiss records a signature a node failed to decode
	// (collision-corrupted or below threshold); Slot is the slot hint.
	KindTriggerMiss
	// KindROPPoll is one client's backlog as decoded in an ROP round: Node
	// is the client, Value the reported backlog, Extra the subchannel,
	// OK whether the report symbol decoded.
	KindROPPoll
	// KindBackoff records a DCF contention draw: Node, Value the drawn
	// counter, Extra the contention window.
	KindBackoff
	// KindAckTimeout records a MAC-level ACK timeout: Node is the sender,
	// Value the retry count.
	KindAckTimeout
	// KindCollision records an addressed frame that failed to decode at its
	// receiver: Node is the receiver, Aux the frame kind.
	KindCollision
	// KindTxStart/KindTxEnd bracket a frame on the air: Node is the sender,
	// Dur the airtime, Aux the frame kind.
	KindTxStart
	KindTxEnd
	// KindQueue samples a MAC queue backlog: Link is the link, Value the
	// depth in packets.
	KindQueue
	// KindKernel samples the event loop: Value is the pending queue depth,
	// Extra the fired-event count.
	KindKernel
	// KindDrop records a MAC give-up (retry limit or queue overflow): Link
	// is the link, Aux "retry" or "overflow" when known.
	KindDrop
	// KindPktEnqueue opens a packet lifecycle span: Link is the packet's
	// link, Value the payload bytes, Span the packet's fresh span id.
	KindPktEnqueue
	// KindPktDeliver closes a packet lifecycle span at MAC delivery: Span is
	// the packet's span, Parent the span of the transmission (slot/epoch)
	// that carried it, Dur the enqueue-to-delivery latency, Value the
	// queueing delay in µs and Extra the head-of-line latency in µs.
	KindPktDeliver
	// KindEpoch marks a CENTAUR epoch build: Value is the epoch sequence
	// number, Extra the scheduled round count, Span the epoch's span id.
	KindEpoch
	// KindMetric is a per-histogram summary emitted once at run end when both
	// a tracer and a metrics registry are installed: Aux is the metric name,
	// Value the sample count, Extra the p99 (rounded to an integer).
	KindMetric

	numKinds
)

// kindNames are the wire names, index-matched to the Kind constants.
var kindNames = [numKinds]string{
	"run_start", "run_end", "slot_start", "slot_end", "trigger",
	"trigger_miss", "rop_poll", "backoff", "ack_timeout", "collision",
	"tx_start", "tx_end", "queue", "kernel", "drop", "pkt_enqueue", "pkt_deliver", "epoch", "metric",
}

// String returns the record type's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Record is one trace event. It is passed by value through Tracer.Emit so a
// no-op tracer costs no allocation. Node, Link and Slot use -1 for "not
// applicable" (0 is a valid id); emission sites must set them explicitly.
//
// Span and Parent carry the causal-tree layer: a record with Span != 0 opens
// (or belongs to) that span, and Parent != 0 names the span whose effect it
// is. Span ids come from a per-run Spans allocator (see span.go), so the
// trees are deterministic and 0 always means "none".
type Record struct {
	At     sim.Time // simulated timestamp
	Kind   Kind
	Node   int      // node id, -1 if n/a
	Link   int      // link id, -1 if n/a
	Slot   int      // DOMINO slot index, -1 if n/a
	Value  int64    // kind-specific primary value
	Extra  int64    // kind-specific secondary value
	Dur    sim.Time // duration payload (airtime), 0 if n/a
	Span   int64    // causal span this record belongs to, 0 if none
	Parent int64    // span that caused this record, 0 if none/root
	Shard  int      // 1-based interference-domain shard id, 0 if unsharded
	Aux    string   // kind-specific tag (frame kind, scheme, "data"/"fake")
	OK     bool
}

// Rec returns a Record with Node, Link and Slot marked not-applicable.
func Rec(at sim.Time, k Kind) Record {
	return Record{At: at, Kind: k, Node: -1, Link: -1, Slot: -1}
}

// Tracer receives trace records. Implementations must be cheap and must not
// reorder records; they run inside the simulation event loop.
type Tracer interface {
	Emit(Record)
}

// Buffer is an in-memory Tracer. Only tests use it: those of packages that
// emit records collect them with it.
type Buffer struct {
	recs []Record
}

// Emit implements Tracer.
func (b *Buffer) Emit(r Record) { b.recs = append(b.recs, r) }

// Records returns the emitted records in order.
func (b *Buffer) Records() []Record { return b.recs }
