package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestWindowedRunMatchesSingleRun pins RunUntil's resumability contract, on
// which stepped runs rely: windowed execution fires the same events in the
// same order as a single RunUntil, including self-scheduling chains that
// cross window boundaries and events due exactly at a window's end.
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
		// Due exactly at the third window's end, scheduling more work at
		// that instant.
		k.At(3*197*Microsecond, func() {
			*log = append(*log, -1)
			k.After(0, func() { *log = append(*log, -2) })
		})
	}

	var single []Time
	ks := New(7)
	build(ks, &single)
	ks.RunUntil(deadline)

	var windowed []Time
	kw := New(7)
	build(kw, &windowed)
	for h := Time(197 * Microsecond); h < deadline; h += 197 * Microsecond {
		kw.RunUntil(h)
	}
	kw.RunUntil(deadline)

	if !reflect.DeepEqual(single, windowed) {
		t.Fatalf("windowed run diverged: %d vs %d events", len(windowed), len(single))
	}
	if ks.Fired() != kw.Fired() || ks.Now() != kw.Now() {
		t.Fatalf("fired/now diverged: %d/%v vs %d/%v", ks.Fired(), ks.Now(), kw.Fired(), kw.Now())
	}
}
