package scheme_test

// The registry's acceptance bar: a fifth scheme this repository has never
// heard of registers itself and runs end to end — through the declarative
// spec layer and core's registry pipeline — without one line of internal/core
// changing. The toy engine is a fixed-period TDMA server: every period it
// delivers one head-of-line packet, round-robin across links, straight to the
// MAC event fan-out (no medium contention), which is just enough MAC to drive
// the traffic and statistics layers.

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

type toyConfig struct {
	// PeriodUs is the per-delivery service period in microseconds.
	PeriodUs int `domain:"1..1000000"`
}

type toyEngine struct {
	k      *sim.Kernel
	events mac.Events
	links  []*topo.Link
	queues [][]mac.Packet
	period sim.Time
	next   int
}

func (e *toyEngine) Start() { e.k.After(e.period, e.tick) }

func (e *toyEngine) tick() {
	for i := 0; i < len(e.links); i++ {
		li := (e.next + i) % len(e.links)
		if len(e.queues[li]) > 0 {
			p := e.queues[li][0]
			e.queues[li] = e.queues[li][1:]
			e.next = li + 1
			e.events.Delivered(&p, e.k.Now())
			break
		}
	}
	e.k.After(e.period, e.tick)
}

func (e *toyEngine) Enqueue(p mac.Packet) bool {
	e.queues[p.Link] = append(e.queues[p.Link], p)
	return true
}

func (e *toyEngine) QueueLen(link int) int { return len(e.queues[link]) }

func registerToy(t *testing.T) {
	t.Helper()
	scheme.Registry.MustRegister(scheme.Descriptor{
		Name:    "ToyTDMA",
		Aliases: []string{"toy"},
		Summary: "fixed-period round-robin server (registry test)",
		DefaultConfig: func(p scheme.Params) any {
			return &toyConfig{PeriodUs: 500}
		},
		Build: func(ctx scheme.BuildContext, cfg any) (mac.Engine, error) {
			c := cfg.(*toyConfig)
			e := &toyEngine{
				k:      ctx.Kernel,
				events: ctx.Events,
				links:  ctx.Links,
				queues: make([][]mac.Packet, len(ctx.Links)),
				period: sim.Micros(float64(c.PeriodUs)),
			}
			return e, nil
		},
	})
	t.Cleanup(func() { scheme.Registry.Unregister("ToyTDMA") })
}

func TestToySchemeRunsThroughSpec(t *testing.T) {
	registerToy(t)

	sp := spec.Spec{
		Scheme:       "toytdma", // case-insensitive registry lookup
		Topology:     spec.Topology{Kind: "fig1"},
		Seed:         1,
		Duration:     spec.Duration(200 * sim.Millisecond),
		SchemeConfig: json.RawMessage(`{"PeriodUs": 250}`),
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("spec naming the toy scheme failed validation: %v", err)
	}
	res, err := core.RunE(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateMbps <= 0 {
		t.Fatalf("toy scheme delivered nothing: %.3f Mbps", res.AggregateMbps)
	}
	// One 512-byte delivery per 250 µs period is 16.384 Mbps; the first
	// period is empty, so accept a small shortfall.
	want := 16.384
	if res.AggregateMbps < want*0.9 || res.AggregateMbps > want*1.1 {
		t.Errorf("toy TDMA throughput %.3f Mbps, want ≈%.3f (scheme_config period override not applied?)",
			res.AggregateMbps, want)
	}
	// No typed result fields belong to the toy scheme.
	if res.Domino != nil || res.Dcf != nil || res.Centaur != nil || res.Omni != nil {
		t.Error("toy scheme populated a built-in engine's result field")
	}
}

func TestToySchemeAliasAndProgrammaticRun(t *testing.T) {
	registerToy(t)

	net := topo.Figure1()
	res, err := core.RunScenario(core.Scenario{
		Net:      net,
		Links:    topo.Figure1Links(net),
		Scheme:   "toy", // alias
		Seed:     2,
		Duration: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateMbps <= 0 {
		t.Fatalf("alias run delivered nothing: %.3f Mbps", res.AggregateMbps)
	}
}

func TestUnknownSchemeNameErrors(t *testing.T) {
	_, err := core.RunScenario(core.Scenario{
		Net:      topo.Figure1(),
		Scheme:   "no-such-scheme",
		Downlink: true,
		Duration: 10 * sim.Millisecond,
	})
	if err == nil {
		t.Fatal("unknown scheme name did not error")
	}
}
