package core

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/phy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

// allocsPerEventBudget bounds the heap allocations per fired event of the
// Fig 14 workload's event loop. The run below measured 0.488 (DCF 0.097,
// DOMINO 0.850); the budget is that plus 10%. UDP arrivals allocate
// nothing: packets are values queued in place. What is left is mostly
// frames and DOMINO's control plane. A closure or method value that creeps
// back onto a per-event path moves the ratio by tenths, beyond the budget,
// while the count itself is deterministic: no wall clock is read.
const allocsPerEventBudget = 0.537

// centaurAllocsPerEventBudget is the same bound for a CENTAUR run of the
// same workload: measured 0.101, budget that plus 10%. CENTAUR's uplinks
// and scheduled downlinks run on dcf's station, so this leg also guards the
// station's timers as a second engine drives them.
const centaurAllocsPerEventBudget = 0.111

// tailDropAllocsPerEventBudget bounds the Fig 14 DCF and DOMINO runs again
// with 64-packet queues, where most arrivals are tail-dropped: measured
// 0.485, budget that plus 10%. A refusal that allocated would add about one
// allocation per arrival, and arrivals are most of the events.
const tailDropAllocsPerEventBudget = 0.533

// fig7AllocsPerEventBudget bounds a saturated Fig 7 DOMINO run, where no
// traffic arrivals allocate and DOMINO's own control plane (triggers,
// signature broadcasts, batches) is what is left: measured 2.886, budget
// that plus 10%.
const fig7AllocsPerEventBudget = 3.17

// TestFig14AllocsPerEvent runs one feasible random T(20,3) placement with
// 10/10 Mbps UDP for 200 ms per scheme and fails if the event loop's
// mallocs per fired event exceed the budget: DCF and DOMINO together
// against allocsPerEventBudget, CENTAUR against centaurAllocsPerEventBudget,
// and DCF and DOMINO with 64-packet queues against
// tailDropAllocsPerEventBudget. A last leg runs saturated Fig 7 DOMINO
// against fig7AllocsPerEventBudget.
func TestFig14AllocsPerEvent(t *testing.T) {
	var net *topo.Network
	var seed int64
	for seed = 1; net == nil; seed++ {
		n, err := topo.BuildT(topo.RandomTrace(seed, 110, 800), 20, 3, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(seed)))
		if err == nil {
			net = n
		}
	}
	fig14 := func(s Scheme) Scenario {
		return Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: s, Seed: seed,
			Duration: 200 * sim.Millisecond, Warmup: 50 * sim.Millisecond,
			Traffic: UDPCBR, DownMbps: 10, UpMbps: 10,
		}
	}
	// tailDrop is the same run with 64-packet queues: they fill within
	// milliseconds, so most arrivals are refused.
	tailDrop := func(s Scheme) Scenario {
		sc := fig14(s)
		sc.Tune = func(cfg any) error {
			return registry.Overlay(cfg, json.RawMessage(`{"QueueCap": 64}`), "scheme_config", "field")
		}
		return sc
	}
	sp, err := spec.Parse([]byte(`{"scheme": "domino", "topology": {"kind": "fig7"}, "seed": 1,
		"duration": "200ms", "warmup": "50ms", "traffic": {"kind": "saturated"}}`))
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := BuildScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name   string
		runs   []Scenario
		budget float64
	}{
		{"fig14 DCF+DOMINO", []Scenario{fig14(DCF), fig14(DOMINO)}, allocsPerEventBudget},
		{"fig14 CENTAUR", []Scenario{fig14(CENTAUR)}, centaurAllocsPerEventBudget},
		{"fig14 tail-drop DCF+DOMINO", []Scenario{tailDrop(DCF), tailDrop(DOMINO)}, tailDropAllocsPerEventBudget},
		{"fig7 DOMINO", []Scenario{fig7}, fig7AllocsPerEventBudget},
	} {
		var mallocs, events uint64
		for _, sc := range leg.runs {
			in, err := NewInstance(sc)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			in.Step(in.S.Duration)
			runtime.ReadMemStats(&after)
			in.Finish()
			t.Logf("%s, %v: %d mallocs over %d events (%.3f/event)", leg.name, sc.Scheme, after.Mallocs-before.Mallocs,
				in.Kernel.Fired(), float64(after.Mallocs-before.Mallocs)/float64(in.Kernel.Fired()))
			mallocs += after.Mallocs - before.Mallocs
			events += in.Kernel.Fired()
		}
		if per := float64(mallocs) / float64(events); per > leg.budget {
			t.Errorf("%s: %.3f mallocs per event (%d over %d events), budget %.3f", leg.name, per, mallocs, events, leg.budget)
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
