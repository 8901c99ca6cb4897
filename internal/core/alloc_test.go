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
// Fig 14 workload's event loop. The run below measured 0.0421 (DCF 0.014,
// DOMINO 0.068); the budget is that plus 10%. No frame, timer, ACK, slot or
// payload allocates: the medium copies frames into its own transmissions,
// the MACs bind their timers once and recycle their deferred-call records,
// and DOMINO's converter reuses the storage of the slots its log drops and
// sizes each new slot entry's trigger list and broadcast's target list
// once. What is left is mostly the pools growing to their peak in a 200 ms
// run, and per-batch work (a plan, its slot array). A
// closure or method value that creeps back onto a per-event path adds
// about one allocation per event, many times the budget, while the count
// itself is deterministic: no wall clock is read.
const allocsPerEventBudget = 0.047

// centaurAllocsPerEventBudget is the same bound for a CENTAUR run of the
// same workload: measured 0.0160, budget that plus 10%. CENTAUR's uplinks
// and scheduled downlinks run on dcf's station, so this leg also guards the
// station's timers as a second engine drives them.
const centaurAllocsPerEventBudget = 0.0177

// tailDropAllocsPerEventBudget bounds the Fig 14 DCF and DOMINO runs again
// with 64-packet queues, where most arrivals are tail-dropped: measured
// 0.0412, budget that plus 10%. A refusal that allocated would add about one
// allocation per arrival, and arrivals are most of the events.
const tailDropAllocsPerEventBudget = 0.046

// tcpAllocsPerEventBudget bounds T(10,2) campus runs with TCP Reno flows
// (DCF and DOMINO, 200 ms): measured 0.0535 (DCF 0.010, DOMINO 0.120),
// budget that plus 10%. The flows' own state allocates nothing per segment:
// send times and out-of-order marks live in per-flow rings indexed by
// sequence number, which allocate only to double when a window outgrows
// them. The token clock parks while its ticks could not act, so
// the run fires a third fewer events than one whose clock ticks throughout,
// and every allocation left weighs more per event. A flow whose token clock
// or RTO re-armed with a fresh method value read 0.518 here.
const tcpAllocsPerEventBudget = 0.059

// The fig7 budgets bound each scheme's saturated Fig 7 run, where no
// traffic arrivals allocate and the engines' own timers and exchanges are
// what is left. Measured (plus 10% for the budget): DCF 0.0129, CENTAUR
// 0.0329 (DCF's station plus one schedule per epoch), Omniscient 0.0142.
// DOMINO (its control plane: triggers, signature broadcasts, batches)
// measured 0.0775 with RAND and ROP, and its budget holds every registered
// scheduler and poller: it is the costliest cell, LQF with UORA (0.0874),
// rounded up. Over a 60 s run, where the pools' warm-up no longer
// counts, DOMINO, DCF, CENTAUR and Omniscient allocate 0.0072, 0.0001,
// 0.0143 and 0.0000 per event.
const (
	fig7AllocsPerEventBudget           = 0.088
	fig7DCFAllocsPerEventBudget        = 0.0142
	fig7CentaurAllocsPerEventBudget    = 0.0362
	fig7OmniscientAllocsPerEventBudget = 0.0157
)

// fig14Placement returns the first feasible random T(20,3) placement and
// the kernel seed its runs use: the one after the seed that drew it, as
// the budgets were measured.
func fig14Placement() (*topo.Network, int64) {
	for seed := int64(1); ; seed++ {
		if n, err := topo.BuildT(topo.RandomTrace(seed, 110, 800), 20, 3, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(seed))); err == nil {
			return n, seed + 1
		}
	}
}

// fig14UDP runs scheme s on the placement with 10/10 Mbps UDP for d.
func fig14UDP(net *topo.Network, seed int64, s Scheme, d sim.Time) Scenario {
	return Scenario{
		Net: net, Downlink: true, Uplink: true, Scheme: s, Seed: seed,
		Duration: d, Warmup: 50 * sim.Millisecond,
		Traffic: UDPCBR, DownMbps: 10, UpMbps: 10,
	}
}

// t10x2Campus is T(10,2) on the campus trace, as bench's t10x2-tcp builds it.
func t10x2Campus(t *testing.T) *topo.Network {
	t.Helper()
	campus, err := topo.BuildT(topo.CampusTrace(1), 10, 2, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return campus
}

// t10x2TCP runs scheme s on campus with TCP Reno, 10 Mbps down and 4 Mbps
// up, as bench's t10x2-tcp, for d.
func t10x2TCP(campus *topo.Network, s Scheme, seed int64, d sim.Time) Scenario {
	return Scenario{
		Net: campus, Downlink: true, Uplink: true, Scheme: s, Seed: seed,
		Duration: d, Warmup: 50 * sim.Millisecond,
		Traffic: TCP, DownMbps: 10, UpMbps: 4,
	}
}

// fig7Saturated runs scheme saturated on Fig 7 for d, with schemeConfig (a
// JSON object) as its scheme_config.
func fig7Saturated(t *testing.T, scheme, schemeConfig string, d sim.Time) Scenario {
	t.Helper()
	sp, err := spec.Parse([]byte(`{"scheme": "` + scheme + `", "topology": {"kind": "fig7"}, "seed": 1,
		"duration": "` + d.String() + `", "warmup": "50ms", "traffic": {"kind": "saturated"}, "scheme_config": ` + schemeConfig + `}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

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
	const d = 200 * sim.Millisecond
	net, seed := fig14Placement()
	fig14 := func(s Scheme) Scenario { return fig14UDP(net, seed, s, d) }
	// tailDrop is the same run with 64-packet queues: they fill within
	// milliseconds, so most arrivals are refused.
	tailDrop := func(s Scheme) Scenario {
		sc := fig14(s)
		sc.Tune = func(cfg any) error {
			return registry.Overlay(cfg, json.RawMessage(`{"QueueCap": 64}`), "scheme_config", "field")
		}
		return sc
	}
	campus := t10x2Campus(t)
	tcp := func(s Scheme) Scenario { return t10x2TCP(campus, s, 1, d) }
	fig7 := func(scheme, schemeConfig string) Scenario { return fig7Saturated(t, scheme, schemeConfig, d) }
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

// TestWorkPerSimSecond runs T(10,2) TCP under DCF, CENTAUR and DOMINO, the
// Fig 14 UDP pair and Fig 7 saturated under each scheme for 1 s each, and
// fails if a run fires more events per simulated second than its budget:
// the measured count plus 2%. The counts are deterministic, so a change
// that adds work to the event loop (a timer that fires in vain, an extra
// event per frame) fails here however fast the host is; a budget goes only
// down; the comment after each is the measured count. The TCP rows pin the
// parked token clocks: when every flow's clock
// ticked each segment interval throughout, they fired 184,960 (DCF),
// 173,494 (CENTAUR) and 135,740 (DOMINO) events per second.
func TestWorkPerSimSecond(t *testing.T) {
	const d = sim.Second
	net, seed := fig14Placement()
	campus := t10x2Campus(t)
	for _, row := range []struct {
		name   string
		sc     Scenario
		budget float64
	}{
		{"T(10,2) TCP DCF", t10x2TCP(campus, DCF, 1, d), 126984},            // 124,494
		{"T(10,2) TCP CENTAUR", t10x2TCP(campus, CENTAUR, 1, d), 113411},    // 111,187
		{"T(10,2) TCP DOMINO", t10x2TCP(campus, DOMINO, 1, d), 78627},       // 77,085
		{"fig14 DCF", fig14UDP(net, seed, DCF, d), 409326},                  // 401,300
		{"fig14 DOMINO", fig14UDP(net, seed, DOMINO, d), 443582},            // 434,884
		{"fig7 DCF", fig7Saturated(t, "dcf", "{}", d), 31871},               // 31,246
		{"fig7 CENTAUR", fig7Saturated(t, "centaur", "{}", d), 32850},       // 32,205
		{"fig7 DOMINO", fig7Saturated(t, "domino", "{}", d), 42823},         // 41,983
		{"fig7 Omniscient", fig7Saturated(t, "omniscient", "{}", d), 17202}, // 16,864
	} {
		in, err := NewInstance(row.sc)
		if err != nil {
			t.Fatal(err)
		}
		in.Step(in.S.Duration)
		in.Finish()
		perSecond := float64(in.Kernel.Fired()) / d.Seconds()
		t.Logf("%s: %.0f events per simulated second", row.name, perSecond)
		if perSecond > row.budget {
			t.Errorf("%s: %.0f events per simulated second, budget %.0f", row.name, perSecond, row.budget)
		}
	}
}
