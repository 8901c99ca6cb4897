package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent is refKernel's event: its own (at, seq) key and heap index.
type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	index     int32
	src       Source
	cancelled bool
}

// refQueue is the event queue this kernel shipped with before the pooled
// monomorphic heap: container/heap over a boxed slice, one garbage event per
// schedule. It is kept verbatim (modulo the event struct rename) as the
// queue of refKernel, the model TestDifferentialRandomOps checks the pooled
// kernel against.
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = int32(i)
	q[j].index = int32(j)
}

func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = int32(len(*q))
	*q = append(*q, e)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// refKernel is the test-only model kernel: the pre-pool event loop over
// refQueue, with a fresh event per schedule and no generation checks.
type refKernel struct {
	now   Time
	q     refQueue
	seq   uint64
	fired uint64
	cur   Source
	hook  func(EventInfo)
}

// refHandle is refKernel's event handle.
type refHandle struct {
	k  *refKernel
	ev *refEvent
}

func (h refHandle) Cancel() {
	if h.ev.cancelled || h.ev.index < 0 {
		return
	}
	h.ev.cancelled = true
	heap.Remove(&h.k.q, int(h.ev.index))
}

func (k *refKernel) Now() Time                    { return k.now }
func (k *refKernel) OnEvent(hook func(EventInfo)) { k.hook = hook }

func (k *refKernel) At(t Time, fn func()) refHandle {
	ev := &refEvent{at: t, seq: k.seq, fn: fn, src: k.cur, index: -1}
	k.seq++
	heap.Push(&k.q, ev)
	return refHandle{k: k, ev: ev}
}

func (k *refKernel) After(d Time, fn func()) refHandle { return k.At(k.now+d, fn) }

func (k *refKernel) Run() Time {
	for len(k.q) > 0 {
		ev := heap.Pop(&k.q).(*refEvent)
		if ev.cancelled {
			continue
		}
		k.now = ev.at
		k.fired++
		k.cur = ev.src
		if k.hook != nil {
			k.hook(EventInfo{Now: ev.at, Fired: k.fired, Pending: len(k.q), Source: ev.src})
		}
		ev.fn()
	}
	return k.now
}

// opKernel is the scheduling surface opTrace drives; both the pooled Kernel
// (handle Event) and refKernel (handle refHandle) provide it.
type opKernel[H interface{ Cancel() }] interface {
	Now() Time
	At(Time, func()) H
	After(Time, func()) H
	OnEvent(func(EventInfo))
	Run() Time
}

// opTrace drives one kernel through a deterministic random schedule of
// At/After/Cancel operations (derived from seed) and records the (at, seq)
// identity of every event that fires. Callbacks themselves schedule and
// cancel, so the interleaving exercises mid-run mutation of the queue. The
// run starts from roots events spread over [0, 4·roots); with hundreds of
// roots the queue is deep and a cancelled handle sits at a random heap
// position, often an inner node.
func opTrace[H interface{ Cancel() }](k opKernel[H], seed int64, ops, roots int) []EventInfo {
	rng := rand.New(rand.NewSource(seed))
	var fired []EventInfo
	k.OnEvent(func(info EventInfo) { fired = append(fired, info) })

	var handles []H
	var step func()
	remaining := ops
	step = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		switch rng.Intn(4) {
		case 0: // absolute schedule, possibly at the current instant (FIFO tie)
			handles = append(handles, k.At(k.Now()+Time(rng.Intn(5)), step))
		case 1: // relative schedule
			handles = append(handles, k.After(Time(1+rng.Intn(50)), step))
		case 2: // schedule then cancel a random outstanding handle
			handles = append(handles, k.After(Time(1+rng.Intn(50)), step))
			handles[rng.Intn(len(handles))].Cancel()
		default: // burst of same-instant events to stress seq tie-breaking
			at := k.Now() + Time(rng.Intn(3))
			for i := 0; i < 3; i++ {
				handles = append(handles, k.At(at, step))
			}
		}
	}
	// Seed the run with roots so cancellation cannot strand the trace.
	for i := 0; i < roots; i++ {
		handles = append(handles, k.After(Time(rng.Intn(4*roots)), step))
	}
	k.Run()
	return fired
}

// TestDifferentialRandomOps: for random At/After/Cancel interleavings the
// pooled monomorphic kernel must fire the exact same event sequence — same
// timestamps, same fired counts, same pending depths, same sources — as the
// container/heap model kernel. The deep runs keep more than a thousand
// events pending, so sifts span several 4-ary levels and cancels remove
// inner entries.
func TestDifferentialRandomOps(t *testing.T) {
	for _, tc := range []struct {
		name           string
		seeds          int64
		ops, roots     int
		minPendingPeak int
	}{
		{"shallow", 25, 400, 4, 0},
		{"deep", 5, 6000, 1500, 1000},
	} {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			pooled := New(seed)
			got := opTrace[Event](pooled, seed, tc.ops, tc.roots)

			model := &refKernel{}
			want := opTrace[refHandle](model, seed, tc.ops, tc.roots)

			if len(got) != len(want) {
				t.Fatalf("%s seed %d: pooled fired %d events, model fired %d", tc.name, seed, len(got), len(want))
			}
			peak := 0
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: event %d diverged: pooled %+v, model %+v", tc.name, seed, i, got[i], want[i])
				}
				peak = max(peak, got[i].Pending)
			}
			if peak < tc.minPendingPeak {
				t.Fatalf("%s seed %d: pending peaked at %d, want >= %d", tc.name, seed, peak, tc.minPendingPeak)
			}
			if pooled.Now() != model.Now() {
				t.Fatalf("%s seed %d: final clocks diverged: %v vs %v", tc.name, seed, pooled.Now(), model.Now())
			}
			if pooled.Pending() != 0 || len(pooled.free) != len(pooled.q.evs) {
				t.Fatalf("%s seed %d: drained kernel has %d pending, %d of %d events pooled",
					tc.name, seed, pooled.Pending(), len(pooled.free), len(pooled.q.evs))
			}
		}
	}
}

// TestSameInstantFIFOProperty checks (at, seq) ordering directly: events
// scheduled at identical instants from random interleavings fire in exact
// schedule order, and distinct instants fire in time order.
func TestSameInstantFIFOProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		type stamp struct {
			at  Time
			ord int
		}
		var want []stamp
		var got []stamp
		for i := 0; i < 300; i++ {
			at := Time(rng.Intn(20))
			ord := i
			want = append(want, stamp{at, ord})
			k.At(at, func() { got = append(got, stamp{k.Now(), ord}) })
		}
		// Expected order: stable sort by at (schedule order preserved within
		// an instant) — exactly the (at, seq) contract.
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && want[j].at < want[j-1].at; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		k.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}
