package sim

import "math/rand"

// Source attributes an event to the layer that scheduled it. Events inherit
// the source of the event whose callback created them, so a chain started by
// a traffic arrival stays attributed to traffic until a layer retags it with
// Event.SetSource. The attribution feeds the observability layer's per-source
// fired counters; it has no effect on scheduling.
type Source uint8

const (
	SrcUnknown Source = iota
	SrcPHY            // medium transmission-end events
	SrcMAC            // contention, slot, watchdog and ack timers
	SrcTraffic        // workload arrival processes and transport timers
	NumSources
)

func (s Source) String() string {
	switch s {
	case SrcPHY:
		return "phy"
	case SrcMAC:
		return "mac"
	case SrcTraffic:
		return "traffic"
	default:
		return "unknown"
	}
}

// event is the kernel-owned state of one scheduled callback. The structs are
// pooled: once an event fires or is cancelled it returns to the kernel's free
// list and is reused by a later At/After, so the steady-state event loop
// allocates nothing. The generation counter is bumped on every reuse, which
// turns any still-outstanding handle to the struct's previous life into a
// harmless no-op (see Event).
//
// The event's timestamp and tie-breaking sequence number live in its heap
// entry (hent), not here: the queue orders entries without touching events.
type event struct {
	gen       uint64 // incremented each time the struct is recycled
	fn        func()
	k         *Kernel
	index     int32 // heap index, -1 when not queued
	id        int32 // slot in the queue's registry (eventQueue.evs)
	src       Source
	cancelled bool
	made      Time // the clock when At queued the event
}

// Event is a generation-checked handle to a scheduled callback, returned by
// Kernel.At and Kernel.After. The zero value is an empty handle whose methods
// all no-op, so "no timer armed" needs no sentinel beyond Event{}.
//
// The pool contract: a handle is invalid once its event fires or is
// cancelled. The kernel recycles the underlying struct, and the generation
// stamp makes every later method call through a stale handle a safe no-op
// (Cancel cannot reach into an unrelated recycled event). Engines should
// still clear their stored handles (h = sim.Event{}) when the callback runs,
// as every MAC engine in this repository does — Scheduled is the armed check.
type Event struct {
	ev  *event
	gen uint64
	at  Time
}

// live reports whether the handle still refers to the event it was issued
// for (the slot has not been recycled).
func (e Event) live() bool { return e.ev != nil && e.gen == e.ev.gen }

// At returns the instant the event was scheduled to fire. The timestamp is
// stored in the handle itself, so it stays valid even once the handle is
// stale (and reports zero for the zero handle).
func (e Event) At() Time { return e.at }

// Scheduled reports whether the event is still queued: not yet fired and not
// cancelled. False for the zero handle and for stale handles.
func (e Event) Scheduled() bool { return e.live() && e.ev.index >= 0 }

// SetSource retags the event's attribution (see Source). It returns the
// handle so call sites can chain it onto Kernel.At/After. A no-op on stale
// or zero handles.
func (e Event) SetSource(s Source) Event {
	if e.live() {
		e.ev.src = s
	}
	return e
}

// Cancel prevents the event from firing, removes it from the queue via its
// stored heap index (cancelled events do not linger and inflate Pending())
// and recycles its storage. Cancelling an event that already fired, was
// already cancelled, or whose storage has since been reused is a no-op: the
// generation check stops a stale handle from touching the slot's new
// occupant.
func (e Event) Cancel() {
	if !e.live() || e.ev.cancelled {
		return
	}
	ev := e.ev
	ev.cancelled = true
	if ev.index >= 0 {
		ev.k.removeQueued(ev)
	}
}

// EventInfo is the snapshot handed to the Kernel.OnEvent hook just before an
// event's callback runs. It is passed by value so a nil or trivial hook costs
// no allocations.
type EventInfo struct {
	Now     Time   // the event's timestamp (== kernel clock when the hook runs)
	Fired   uint64 // events executed so far, including this one
	Pending int    // events still queued after this one was popped
	Source  Source // the event's attribution
}

// Kernel is a single-threaded discrete-event scheduler. The zero value is not
// usable; construct with New.
//
// The event queue is a monomorphic index-tracked 4-ary min-heap of
// pointer-free (at, seq, id) entries: no heap.Interface, no interface boxing,
// and no allocation per schedule in steady state (events recycle through a
// free list of registry ids). TestDifferentialRandomOps checks it against a
// container/heap model.
type Kernel struct {
	now     Time
	q       eventQueue
	free    []int32 // registry ids of recycled events, used LIFO
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	cur     Source // source of the currently executing event, inherited by new events
	curMade Time   // when the currently executing event was scheduled (ScheduledAt)
	hook    func(EventInfo)
}

// New returns a kernel whose clock starts at zero and whose random source is
// seeded with the given seed. Identical seeds yield identical simulations.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All model components
// must draw randomness from here (never from the global rand) to preserve
// reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired returns the number of events executed so far, a cheap progress and
// complexity metric for benchmarks.
func (k *Kernel) Fired() uint64 { return k.fired }

// ScheduledAt returns the instant at which the executing event was scheduled:
// the clock when At or After queued it. Among events due at one instant
// the kernel runs the earlier-scheduled first, so a caller can tell from it
// whether an event it did not schedule, due at the same instant, precedes
// the executing one.
func (k *Kernel) ScheduledAt() Time { return k.curMade }

// OnEvent installs hook to run before every event callback. A nil hook (the
// default) costs a single branch on the event loop and zero allocations;
// this is pinned by TestOnEventNilHookZeroAllocs and BenchmarkKernel.
func (k *Kernel) OnEvent(hook func(EventInfo)) { k.hook = hook }

// alloc returns a recycled event struct, or a fresh one when the pool is
// empty. The generation bump invalidates every handle issued for the
// struct's previous life.
func (k *Kernel) alloc() *event {
	if n := len(k.free) - 1; n >= 0 {
		ev := k.q.evs[k.free[n]]
		k.free = k.free[:n]
		ev.gen++
		ev.cancelled = false
		return ev
	}
	ev := &event{k: k, index: -1, id: int32(len(k.q.evs))}
	k.q.evs = append(k.q.evs, ev)
	return ev
}

// release returns a fired or cancelled event to the pool.
func (k *Kernel) release(ev *event) {
	ev.fn = nil // drop the closure so the pool does not pin captured state
	k.free = append(k.free, ev.id)
}

// removeQueued eagerly removes a still-queued event (the Cancel path) and
// recycles it.
func (k *Kernel) removeQueued(ev *event) {
	k.q.remove(int(ev.index))
	k.release(ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a protocol-logic bug, and silently reordering time would
// corrupt every result built on top of the kernel. Zero-alloc in steady
// state: the event struct comes from the kernel's pool and the returned
// handle is a value.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	ev := k.alloc()
	ev.fn = fn
	ev.src = k.cur
	ev.made = k.now
	k.q.push(hent{at: t, seq: k.seq, id: ev.id})
	k.seq++
	return Event{ev: ev, gen: ev.gen, at: t}
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) Event {
	return k.At(k.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
// Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the queue drains or Stop is
// called, and returns the final clock value.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline unless Stop ended the call first. It returns the
// final clock value. Resumable: successive RunUntil calls with increasing
// deadlines fire exactly the events one call to the last deadline would, in
// the same order.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for !k.stopped {
		if len(k.q.ents) == 0 || k.q.ents[0].at > deadline {
			if deadline != MaxTime && k.now < deadline {
				k.now = deadline
			}
			return k.now
		}
		at := k.q.ents[0].at
		ev := k.q.popMin()
		if ev.cancelled {
			// Cancelled events are removed eagerly; this lazy skip only
			// guards an event cancelled through its own handle between pop
			// and run (not reachable today, kept as a cheap invariant).
			continue
		}
		k.now = at
		k.fired++
		k.cur, k.curMade = ev.src, ev.made
		if k.hook != nil {
			k.hook(EventInfo{Now: at, Fired: k.fired, Pending: k.Pending(), Source: ev.src})
		}
		fn := ev.fn
		k.release(ev)
		fn()
	}
	return k.now
}

// Pending returns the number of events currently queued. Cancelled events are
// removed eagerly, so they no longer count.
func (k *Kernel) Pending() int { return len(k.q.ents) }
