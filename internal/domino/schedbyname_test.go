package domino

import (
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strict"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestSchedulerByName covers the plug-in path for custom schedulers: a
// throwaway policy registered with strict.RegisterScheduler drives the
// engine by name, and since it builds LQF it must reproduce the built-in
// "lqf" run exactly.
func TestSchedulerByName(t *testing.T) {
	const name = "test-plugged-lqf"
	built := 0
	strict.MustRegisterScheduler(strict.SchedulerDescriptor{
		Name: name,
		Build: func(g *topo.ConflictGraph, _ any) (strict.Scheduler, error) {
			built++
			return strict.NewLQF(g), nil
		},
	})
	defer strict.UnregisterScheduler(name)

	aggName, eName := runWith(t, 31, func(c *Config) { c.Scheduler = "lqf" })
	aggPlug, ePlug := runWith(t, 31, func(c *Config) { c.Scheduler = name })
	if built != 1 {
		t.Fatalf("registered scheduler built %d times, want 1", built)
	}
	if aggName != aggPlug {
		t.Errorf("Scheduler=\"lqf\" got %.4f Mbps, plugged-in scheduler %.4f", aggName, aggPlug)
	}
	if eName.DataSends != ePlug.DataSends || eName.SelfStarts != ePlug.SelfStarts {
		t.Errorf("counters diverge: name %d/%d plugged %d/%d",
			eName.DataSends, eName.SelfStarts, ePlug.DataSends, ePlug.SelfStarts)
	}
}

// TestEachRegisteredSchedulerRuns drives the engine once per registered
// policy: every name must produce a live chain.
func TestEachRegisteredSchedulerRuns(t *testing.T) {
	for _, name := range strict.SchedulerNames() {
		agg, e := runWith(t, 17, func(c *Config) { c.Scheduler = name })
		if agg < 8 {
			t.Errorf("scheduler %s: aggregate %.2f Mbps", name, agg)
		}
		if e.SelfStarts > 150 {
			t.Errorf("scheduler %s: %d self-starts", name, e.SelfStarts)
		}
	}
}

func TestUnknownSchedulerPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted an unknown scheduler name")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "no-such-policy") {
			t.Errorf("panic %v does not name the bad scheduler", r)
		}
	}()
	runWith(t, 1, func(c *Config) { c.Scheduler = "no-such-policy" })
}

// traceRun executes a saturated Figure7 run and returns the complete engine
// trace-event stream plus the engine.
func traceRun(t *testing.T, seed int64, mut func(*Config)) ([]TraceEvent, *Engine) {
	t.Helper()
	net := topo.Figure7()
	links := net.BuildLinks(true, true)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(seed)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	engine := New(k, medium, g, hub, cfg)
	var events []TraceEvent
	engine.Trace = func(ev TraceEvent) { events = append(events, ev) }
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	k.RunUntil(2 * sim.Second)
	return events, engine
}

// TestConvertObsGatedAndMetrics: KindConvert records appear only behind the
// ConvertTrace gate, and WireMetrics surfaces the conversion counters.
func TestConvertObsGatedAndMetrics(t *testing.T) {
	run := func(convertTrace bool) (*obs.Buffer, obs.Snapshot) {
		net := topo.Figure7()
		links := net.BuildLinks(true, true)
		g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
		k := sim.New(9)
		medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
		hub := &mac.Hub{}
		cfg := DefaultConfig()
		cfg.ConvertTrace = convertTrace
		engine := New(k, medium, g, hub, cfg)
		buf := &obs.Buffer{}
		engine.WireObs(obs.NewRun(buf, nil))
		m := obs.NewMetrics()
		engine.WireMetrics(m)
		for _, l := range links {
			s := traffic.NewSaturated(k, engine, l, 512, 8)
			hub.Add(s)
			s.Start()
		}
		engine.Start()
		k.RunUntil(1 * sim.Second)
		return buf, m.Snapshot()
	}

	buf, snap := run(false)
	if n := buf.Count(obs.KindConvert); n != 0 {
		t.Errorf("ConvertTrace off but %d convert records emitted", n)
	}
	batches, ok := snap.Get("convert.batches")
	if !ok || batches.Value < 1 {
		t.Errorf("convert.batches = %+v, want >= 1", batches)
	}

	buf, _ = run(true)
	if buf.Count(obs.KindConvert) == 0 {
		t.Error("ConvertTrace on but no convert records emitted")
	}
	seen := map[string]bool{}
	for _, r := range buf.Records() {
		if r.Kind == obs.KindConvert {
			seen[r.Aux] = true
		}
	}
	for _, aux := range []string{"fake_link_insert", "trigger_assign", "batch_connect",
		"rop_insert", "batch", "inbound", "combined"} {
		if !seen[aux] {
			t.Errorf("no convert record with Aux=%q", aux)
		}
	}
}
