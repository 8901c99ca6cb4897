package core

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/strict"
	"repro/internal/topo"
)

// allocsPerEventBudget bounds the heap allocations per fired event of the
// Fig 14 workload's event loop. The run below measured 0.0644 (DCF 0.014,
// DOMINO 0.111); the budget is that plus 10%. No frame, timer, ACK, slot or
// payload allocates: the medium copies frames into its own transmissions,
// the MACs bind their timers once and recycle their deferred-call records,
// and DOMINO's converter reuses the storage of the slots its log drops.
// What is left is mostly the pools growing to their peak in a 200 ms run,
// and per-batch work (a plan, its slot array). A
// closure or method value that creeps back onto a per-event path adds
// about one allocation per event, many times the budget, while the count
// itself is deterministic: no wall clock is read.
const allocsPerEventBudget = 0.071

// centaurAllocsPerEventBudget is the same bound for a CENTAUR run of the
// same workload: measured 0.0160, budget that plus 10%. CENTAUR's uplinks
// and scheduled downlinks run on dcf's station, so this leg also guards the
// station's timers as a second engine drives them.
const centaurAllocsPerEventBudget = 0.0177

// tailDropAllocsPerEventBudget bounds the Fig 14 DCF and DOMINO runs again
// with 64-packet queues, where most arrivals are tail-dropped: measured
// 0.0635, budget that plus 10%. A refusal that allocated would add about one
// allocation per arrival, and arrivals are most of the events.
const tailDropAllocsPerEventBudget = 0.070

// tcpAllocsPerEventBudget bounds T(10,2) campus runs with TCP Reno flows
// (DCF and DOMINO, 200 ms): measured 0.0563 (DCF 0.011, DOMINO 0.117),
// budget that plus 10%. A flow whose token clock or RTO re-armed with a
// fresh method value read 0.518 here.
const tcpAllocsPerEventBudget = 0.062

// The fig7 budgets bound each scheme's saturated Fig 7 run, where no
// traffic arrivals allocate and the engines' own timers and exchanges are
// what is left. Measured (plus 10% for the budget): DOMINO 0.114 (its
// control plane: triggers, signature broadcasts, batches), DCF 0.0129,
// CENTAUR 0.0329 (DCF's station plus one schedule per epoch), Omniscient
// 0.0142. Over a 60 s run, where the pools' warm-up no longer counts,
// they allocate 0.0072, 0.0001, 0.0143 and 0.0000 per event. DOMINO's
// budget holds for every registered scheduler and poller: the costliest
// cell, RoundRobin with UORA, measured 0.125.
const (
	fig7AllocsPerEventBudget           = 0.126
	fig7DCFAllocsPerEventBudget        = 0.0142
	fig7CentaurAllocsPerEventBudget    = 0.0362
	fig7OmniscientAllocsPerEventBudget = 0.0157
)

// TestFig14AllocsPerEvent runs one feasible random T(20,3) placement with
// 10/10 Mbps UDP for 200 ms per scheme and fails if the event loop's
// mallocs per fired event exceed the budget: DCF and DOMINO together
// against allocsPerEventBudget, CENTAUR against centaurAllocsPerEventBudget,
// DCF and DOMINO with 64-packet queues against tailDropAllocsPerEventBudget,
// and DCF and DOMINO with TCP on the T(10,2) campus against
// tcpAllocsPerEventBudget. The last legs run each scheme saturated on
// Fig 7 against its fig7 budget, DOMINO once per registered scheduler and
// poller.
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
	// tcp is T(10,2) on the campus trace with TCP Reno, 10 Mbps down and
	// 4 Mbps up, as bench's t10x2-tcp: every token tick and RTO re-arm is
	// a timer of the flows.
	campus, err := topo.BuildT(topo.CampusTrace(1), 10, 2, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tcp := func(s Scheme) Scenario {
		return Scenario{
			Net: campus, Downlink: true, Uplink: true, Scheme: s, Seed: 1,
			Duration: 200 * sim.Millisecond, Warmup: 50 * sim.Millisecond,
			Traffic: TCP, DownMbps: 10, UpMbps: 4,
		}
	}
	// fig7 is Fig 7 saturated under scheme, with schemeConfig (a JSON
	// object) as its scheme_config.
	fig7 := func(scheme, schemeConfig string) Scenario {
		sp, err := spec.Parse([]byte(`{"scheme": "` + scheme + `", "topology": {"kind": "fig7"}, "seed": 1,
			"duration": "200ms", "warmup": "50ms", "traffic": {"kind": "saturated"}, "scheme_config": ` + schemeConfig + `}`))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := BuildScenario(sp)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	type leg struct {
		name   string
		runs   []Scenario
		budget float64
	}
	legs := []leg{
		{"fig14 DCF+DOMINO", []Scenario{fig14(DCF), fig14(DOMINO)}, allocsPerEventBudget},
		{"fig14 CENTAUR", []Scenario{fig14(CENTAUR)}, centaurAllocsPerEventBudget},
		{"fig14 tail-drop DCF+DOMINO", []Scenario{tailDrop(DCF), tailDrop(DOMINO)}, tailDropAllocsPerEventBudget},
		{"T(10,2) TCP DCF+DOMINO", []Scenario{tcp(DCF), tcp(DOMINO)}, tcpAllocsPerEventBudget},
		{"fig7 DCF", []Scenario{fig7("dcf", "{}")}, fig7DCFAllocsPerEventBudget},
		{"fig7 CENTAUR", []Scenario{fig7("centaur", "{}")}, fig7CentaurAllocsPerEventBudget},
		{"fig7 Omniscient", []Scenario{fig7("omniscient", "{}")}, fig7OmniscientAllocsPerEventBudget},
	}
	// DOMINO under every registered scheduler and poller is held to the
	// default RAND/ROP cell's budget: a policy is as cheap as the paper's.
	for _, sched := range strict.Schedulers.Names() {
		for _, poller := range poll.Registry.Names() {
			legs = append(legs, leg{"fig7 DOMINO " + sched + "/" + poller,
				[]Scenario{fig7("domino", `{"Scheduler": "`+sched+`", "Poller": "`+poller+`"}`)}, fig7AllocsPerEventBudget})
		}
	}
	for _, leg := range legs {
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
