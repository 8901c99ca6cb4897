package sim

import (
	"math/rand"
	"testing"
)

// The pool contract: an Event handle is invalid after its event fires or is
// cancelled. The generation counter must turn every operation through a
// stale handle into a no-op instead of reaching the slot's new occupant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	k := New(1)
	first := k.At(Microsecond, func() {})
	k.Run() // fires and recycles the event struct

	fired := false
	second := k.At(2*Microsecond, func() { fired = true })
	if second.ev != first.ev {
		t.Fatalf("pool did not recycle the fired event struct")
	}
	first.Cancel() // stale: must not cancel the recycled slot's new event
	if first.Cancelled() {
		t.Fatal("stale handle reports Cancelled")
	}
	if first.Scheduled() {
		t.Fatal("stale handle reports Scheduled")
	}
	k.Run()
	if !fired {
		t.Fatal("stale Cancel reached the recycled event")
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var e Event
	e.Cancel() // must not panic
	if e.Scheduled() || e.Cancelled() {
		t.Fatal("zero handle claims to be scheduled/cancelled")
	}
	if e.At() != 0 {
		t.Fatalf("zero handle At = %v", e.At())
	}
	if e.Source() != SrcUnknown {
		t.Fatalf("zero handle Source = %v", e.Source())
	}
	e = e.SetSource(SrcMAC) // no-op, must not panic
	if e.Source() != SrcUnknown {
		t.Fatal("SetSource took effect on a zero handle")
	}
}

func TestHandleLifecycle(t *testing.T) {
	k := New(1)
	e := k.At(5*Microsecond, func() {})
	if !e.Scheduled() {
		t.Fatal("fresh handle not Scheduled")
	}
	if e.At() != 5*Microsecond {
		t.Fatalf("At = %v", e.At())
	}
	e.Cancel()
	if e.Scheduled() {
		t.Fatal("cancelled handle still Scheduled")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false immediately after Cancel")
	}
	e.Cancel() // double cancel is a no-op
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after cancel", k.Pending())
	}
	// At() survives staleness: the timestamp lives in the handle.
	k.At(6*Microsecond, func() {}) // recycles the slot
	if e.At() != 5*Microsecond {
		t.Fatalf("stale handle At = %v, want the original 5µs", e.At())
	}
}

// Fired and cancelled events must recycle through the free list instead of
// becoming garbage: after churn, the pool holds the structs and the queue is
// empty.
func TestPoolRecycles(t *testing.T) {
	k := New(1)
	for i := 0; i < 100; i++ {
		k.At(Time(i)*Microsecond, func() {})
	}
	e := k.At(Second, func() {})
	e.Cancel()
	if got := k.poolSize(); got != 1 {
		t.Fatalf("pool size after cancel = %d, want 1", got)
	}
	k.Run()
	if got := k.poolSize(); got != 101 {
		t.Fatalf("pool size after drain = %d, want 101", got)
	}
	// The next 101 schedules must come from the pool.
	for i := 0; i < 101; i++ {
		k.At(k.Now()+Time(i+1)*Microsecond, func() {})
	}
	if got := k.poolSize(); got != 0 {
		t.Fatalf("pool size after reschedule = %d, want 0", got)
	}
}

// Kernel.At, After, Cancel and the fire loop are the pool's zero-alloc
// contract: in steady state (pool warm) scheduling, cancelling and draining a
// deep heap allocate nothing.
func TestAtAfterCancelZeroAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		k.At(Time(i), fn)
	}
	k.Run()
	if got := testing.AllocsPerRun(200, func() {
		e := k.At(k.Now()+Microsecond, fn)
		e.Cancel()
	}); got != 0 {
		t.Fatalf("At+Cancel allocates %v/op in steady state, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		k.After(Microsecond, fn)
		k.Run()
	}); got != 0 {
		t.Fatalf("After+Run allocates %v/op in steady state, want 0", got)
	}
	// 512 outstanding events drained by RunUntil; AllocsPerRun's warm-up call
	// grows the pool and the heap to that depth.
	const batch = 512
	rng := rand.New(rand.NewSource(7))
	if got := testing.AllocsPerRun(20, func() {
		base := k.Now()
		for i := 0; i < batch; i++ {
			k.At(base+Time(1+rng.Intn(batch)), fn)
		}
		k.RunUntil(base + batch)
	}); got != 0 {
		t.Fatalf("%d-event At+RunUntil drain allocates %v/op in steady state, want 0", batch, got)
	}
}
