package domino

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/convert"
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
// throwaway policy registered with strict.Schedulers.MustRegister drives the
// engine by name, and since it builds LQF it must reproduce the built-in
// "lqf" run exactly.
func TestSchedulerByName(t *testing.T) {
	const name = "test-plugged-lqf"
	built := 0
	strict.Schedulers.MustRegister(strict.SchedulerDescriptor{
		Name: name,
		Build: func(g *topo.ConflictGraph) strict.Scheduler {
			built++
			return strict.NewLQF(g)
		},
	})
	defer strict.Schedulers.Unregister(name)

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
	for _, name := range strict.Schedulers.Names() {
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

// traceRun executes a saturated Figure7 run and returns the engine's
// complete obs record stream plus the engine. hook, when non-nil, sees the
// engine before it starts.
func traceRun(t *testing.T, seed int64, hook func(*Engine)) ([]obs.Record, *Engine) {
	t.Helper()
	net := topo.Figure7()
	links := net.BuildLinks(true, true)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(seed)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	engine := New(k, medium, g, hub, DefaultConfig())
	if hook != nil {
		hook(engine)
	}
	buf := &obs.Buffer{}
	engine.Obs = buf
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	k.RunUntil(2 * sim.Second)
	return buf.Records(), engine
}

// TestConvertMetrics: wireMetrics surfaces the conversion counters, and the
// triggers-per-entry histogram covers every converted entry.
func TestConvertMetrics(t *testing.T) {
	net := topo.Figure7()
	links := net.BuildLinks(true, true)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(9)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	engine := New(k, medium, g, hub, DefaultConfig())
	m := obs.NewMetrics()
	engine.wireMetrics(m)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	k.RunUntil(1 * sim.Second)

	snap := m.Snapshot()
	get := func(name string) int64 {
		t.Helper()
		mv, ok := snap.Get(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return int64(mv.Value)
	}
	if get("convert.batches") < 1 {
		t.Error("convert.batches = 0, want >= 1")
	}
	var perEntry int64
	for k := 0; k <= convert.DefaultMaxInbound; k++ {
		perEntry += get(fmt.Sprintf("convert.triggers_per_entry.%d", k))
	}
	if entries := get("convert.entries.real") + get("convert.entries.fake"); perEntry != entries {
		t.Errorf("triggers_per_entry sums to %d, want %d entries", perEntry, entries)
	}
	var perBroadcast int64
	for k := 1; k <= convert.DefaultMaxOutbound; k++ {
		perBroadcast += get(fmt.Sprintf("convert.signatures_per_broadcast.%d", k))
	}
	if perBroadcast == 0 {
		t.Error("signatures_per_broadcast counted no broadcast")
	}
}
