package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestRunBeforeExcludesHorizon(t *testing.T) {
	k := New(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at * Microsecond
		k.At(at, func() { fired = append(fired, at) })
	}
	if now := k.RunBefore(15 * Microsecond); now != 15*Microsecond {
		t.Fatalf("clock = %v, want 15µs", now)
	}
	if want := []Time{5 * Microsecond, 10 * Microsecond}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	// The boundary and later events are still queued; work scheduled at
	// the boundary instant orders after the boundary event by sequence.
	if n := k.Pending(); n != 2 {
		t.Fatalf("pending = %d after RunBefore, want 2 (boundary event gone)", n)
	}
	k.At(15*Microsecond, func() { fired = append(fired, -1) })
	k.RunUntil(25 * Microsecond)
	want := []Time{5 * Microsecond, 10 * Microsecond, 15 * Microsecond, -1, 20 * Microsecond}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestWindowedRunMatchesSingleRun pins the resumability contract RunBefore is
// built for: windowed execution fires the same events in the same order as a
// single RunUntil, including self-scheduling chains that cross window
// boundaries.
func TestWindowedRunMatchesSingleRun(t *testing.T) {
	const deadline = 10 * Millisecond
	build := func(k *Kernel, log *[]Time) {
		rng := rand.New(rand.NewSource(99))
		var chain func()
		chain = func() {
			*log = append(*log, k.Now())
			if k.Now() < deadline {
				k.After(Time(rng.Intn(700)+1)*Microsecond, chain)
			}
		}
		for i := 0; i < 5; i++ {
			at := Time(rng.Intn(2000)) * Microsecond
			k.At(at, func() { *log = append(*log, at) })
		}
		k.At(0, chain)
	}

	var single []Time
	ks := New(7)
	build(ks, &single)
	ks.RunUntil(deadline)

	var windowed []Time
	kw := New(7)
	build(kw, &windowed)
	for h := Time(197 * Microsecond); h < deadline; h += 197 * Microsecond {
		kw.RunBefore(h)
	}
	kw.RunUntil(deadline)

	if !reflect.DeepEqual(single, windowed) {
		t.Fatalf("windowed run diverged: %d vs %d events", len(windowed), len(single))
	}
	if ks.Fired() != kw.Fired() || ks.Now() != kw.Now() {
		t.Fatalf("fired/now diverged: %d/%v vs %d/%v", ks.Fired(), ks.Now(), kw.Fired(), kw.Now())
	}
}
