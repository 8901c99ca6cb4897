package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

// allocsPerEventBudget bounds the heap allocations per fired event of the
// Fig 14 workload's event loop. The run below measured 1.403 (DCF 0.837,
// DOMINO 1.927); the budget is that plus 10%. About half of it is the one
// mac.Packet each UDP arrival needs. A closure or method value that creeps
// back onto a per-event path moves the ratio by tenths, beyond the budget,
// while the count itself is deterministic: no wall clock is read.
const allocsPerEventBudget = 1.54

// centaurAllocsPerEventBudget is the same bound for a CENTAUR run of the
// same workload: measured 0.842, budget that plus 10%. CENTAUR's uplinks
// and scheduled downlinks run on dcf's station, so this leg also guards the
// station's timers as a second engine drives them.
const centaurAllocsPerEventBudget = 0.926

// TestFig14AllocsPerEvent runs one feasible random T(20,3) placement with
// 10/10 Mbps UDP for 200 ms per scheme and fails if the event loop's
// mallocs per fired event exceed the budget: DCF and DOMINO together
// against allocsPerEventBudget, CENTAUR against centaurAllocsPerEventBudget.
func TestFig14AllocsPerEvent(t *testing.T) {
	var net *topo.Network
	var seed int64
	for seed = 1; net == nil; seed++ {
		n, err := topo.BuildT(topo.RandomTrace(seed, 110, 800), 20, 3, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(seed)))
		if err == nil {
			net = n
		}
	}
	for _, leg := range []struct {
		schemes []Scheme
		budget  float64
	}{
		{[]Scheme{DCF, DOMINO}, allocsPerEventBudget},
		{[]Scheme{CENTAUR}, centaurAllocsPerEventBudget},
	} {
		var mallocs, events uint64
		for _, s := range leg.schemes {
			in, err := NewInstance(Scenario{
				Net: net, Downlink: true, Uplink: true, Scheme: s, Seed: seed,
				Duration: 200 * sim.Millisecond, Warmup: 50 * sim.Millisecond,
				Traffic: UDPCBR, DownMbps: 10, UpMbps: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			in.Step(in.S.Duration)
			runtime.ReadMemStats(&after)
			in.Finish()
			t.Logf("%v: %d mallocs over %d events (%.3f/event)", s, after.Mallocs-before.Mallocs,
				in.Kernel.Fired(), float64(after.Mallocs-before.Mallocs)/float64(in.Kernel.Fired()))
			mallocs += after.Mallocs - before.Mallocs
			events += in.Kernel.Fired()
		}
		if per := float64(mallocs) / float64(events); per > leg.budget {
			t.Errorf("%v: %.3f mallocs per event (%d over %d events), budget %.3f", leg.schemes, per, mallocs, events, leg.budget)
		}
	}
}

// TestMisalignSlotsCostOnlyObservedSlots pins that a huge misalign_slots
// bound costs nothing up front: a 20 ms Fig 7 DOMINO run probing 1,000,000
// slots allocates less than twice what the same run allocates unprobed.
func TestMisalignSlotsCostOnlyObservedSlots(t *testing.T) {
	run := func(slots int) uint64 {
		sp, err := spec.Parse([]byte(`{"scheme": "domino", "topology": {"kind": "fig7"}, "seed": 5,
			"duration": "20ms", "warmup": "5ms", "traffic": {"kind": "saturated"}}`))
		if err != nil {
			t.Fatal(err)
		}
		sp.MisalignSlots = slots
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunE(sp)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if slots > 0 && res.Misalign.Max(0) == 0 {
			t.Error("probe recorded no misalignment in slot 0")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	base, probed := run(0), run(1_000_000)
	t.Logf("allocated %d B unprobed, %d B probing 1e6 slots", base, probed)
	if probed >= 2*base {
		t.Errorf("misalign_slots 1000000 allocated %d B, unprobed run %d B", probed, base)
	}
}
