package sim

import (
	"fmt"
	"hash/fnv"
)

// QueuedEvent is the serializable shape of one still-pending event: its
// timestamp, its FIFO tie-breaker and its source attribution. The callback
// closure itself is deliberately absent — closures cannot round-trip through
// a byte stream, which is why kernel restore is replay-based (see
// KernelState): the serialized queue is the integrity contract a replayed
// kernel is audited against, not a substitute for re-executing the events
// that built it.
type QueuedEvent struct {
	At  Time   `json:"at"`
	Seq uint64 `json:"seq"`
	Src Source `json:"src"`
}

// KernelState is a serializable snapshot of everything observable about a
// kernel's scheduling state: the clock, the schedule/fire counters and the
// pending queue in exact pop order. Two kernels that executed the same event
// history have equal states; conversely a replayed kernel whose state
// matches a checkpoint has provably reconverged — same clock, same number of
// events scheduled and fired, and a pending queue that will pop the same
// (at, seq, src) sequence. That is the strongest statement serialization can
// make about a closure-based event queue, and it is exactly the guarantee
// deterministic replay needs: from here on, both kernels fire identical
// event sequences.
//
// Capture with Kernel.CheckpointState, audit with Kernel.VerifyState.
type KernelState struct {
	Now     Time          `json:"now"`
	Seq     uint64        `json:"seq"`
	Fired   uint64        `json:"fired"`
	Pending int           `json:"pending"`
	Queue   []QueuedEvent `json:"queue,omitempty"`
}

// CheckpointState serializes the kernel's scheduling state. The queue is
// emitted in pop order — sorted by (at, seq) — so equal states imply equal
// future pop sequences regardless of internal heap layout. Call only between
// events (never from inside a callback).
func (k *Kernel) CheckpointState() KernelState {
	s := KernelState{Now: k.now, Seq: k.seq, Fired: k.fired, Pending: k.Pending()}
	for _, ev := range k.q {
		s.Queue = append(s.Queue, QueuedEvent{At: ev.at, Seq: ev.seq, Src: ev.src})
	}
	sortQueued(s.Queue)
	return s
}

// sortQueued orders events by (at, seq) — the heap's total pop order.
func sortQueued(q []QueuedEvent) {
	// Insertion sort: checkpoint queues arrive heap-ordered (nearly sorted),
	// and checkpointing is far off any hot path.
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && (q[j].At < q[j-1].At || (q[j].At == q[j-1].At && q[j].Seq < q[j-1].Seq)); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

// Fingerprint hashes the state (FNV-1a over the clock, counters and the
// ordered queue) into one comparable word — the compact form checkpoint
// documents embed next to the full queue.
func (s KernelState) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	w(uint64(s.Now))
	w(s.Seq)
	w(s.Fired)
	w(uint64(s.Pending))
	for _, q := range s.Queue {
		w(uint64(q.At))
		w(q.Seq)
		w(uint64(q.Src))
	}
	return h.Sum64()
}

// VerifyState audits the kernel against a checkpointed state and returns a
// descriptive error on the first divergence — the replay-restore integrity
// gate. A nil return means the kernel's clock, counters and full pending
// queue match the snapshot exactly.
func (k *Kernel) VerifyState(want KernelState) error {
	got := k.CheckpointState()
	if got.Now != want.Now {
		return fmt.Errorf("sim: checkpoint clock mismatch: replayed %d, checkpointed %d", got.Now, want.Now)
	}
	if got.Fired != want.Fired {
		return fmt.Errorf("sim: checkpoint fired-count mismatch: replayed %d, checkpointed %d", got.Fired, want.Fired)
	}
	if got.Seq != want.Seq {
		return fmt.Errorf("sim: checkpoint schedule-count mismatch: replayed %d, checkpointed %d", got.Seq, want.Seq)
	}
	if got.Pending != want.Pending {
		return fmt.Errorf("sim: checkpoint pending-count mismatch: replayed %d, checkpointed %d", got.Pending, want.Pending)
	}
	// A compact state (queue dropped, fingerprint kept elsewhere) can only
	// audit the counters here; the caller compares fingerprints itself.
	if want.Queue == nil {
		return nil
	}
	if len(got.Queue) != len(want.Queue) {
		return fmt.Errorf("sim: checkpoint queue length mismatch: replayed %d, checkpointed %d", len(got.Queue), len(want.Queue))
	}
	for i := range want.Queue {
		if got.Queue[i] != want.Queue[i] {
			return fmt.Errorf("sim: checkpoint queue[%d] mismatch: replayed %+v, checkpointed %+v", i, got.Queue[i], want.Queue[i])
		}
	}
	return nil
}
