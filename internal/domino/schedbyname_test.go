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

// TestSchedulerByName pins the registry path to the explicit-hook path: the
// same policy selected by name must reproduce the hook-built run exactly.
func TestSchedulerByName(t *testing.T) {
	aggName, eName := runWith(t, 31, func(c *Config) { c.Scheduler = "lqf" })
	aggHook, eHook := runWith(t, 31, func(c *Config) {
		c.NewScheduler = func(g *topo.ConflictGraph) strict.Scheduler { return strict.NewLQF(g) }
	})
	if aggName != aggHook {
		t.Errorf("Scheduler=\"lqf\" got %.4f Mbps, NewScheduler hook %.4f", aggName, aggHook)
	}
	if eName.DataSends != eHook.DataSends || eName.SelfStarts != eHook.SelfStarts {
		t.Errorf("counters diverge: name %d/%d hook %d/%d",
			eName.DataSends, eName.SelfStarts, eHook.DataSends, eHook.SelfStarts)
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
