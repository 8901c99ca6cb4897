package domino

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// runWith builds a saturated Figure7 run under a mutated config and returns
// aggregate throughput plus the engine.
func runWith(t *testing.T, seed int64, mut func(*Config)) (float64, *Engine) {
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
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	k.RunUntil(2 * sim.Second)
	return coll.AggregateMbps(2 * sim.Second), engine
}

func TestMaxInboundOverride(t *testing.T) {
	agg1, e1 := runWith(t, 1, func(c *Config) { c.MaxInbound = 1 })
	agg2, e2 := runWith(t, 1, func(c *Config) { c.MaxInbound = 2 })
	if agg1 < 10 || agg2 < 10 {
		t.Errorf("ablation runs unhealthy: inbound1=%.2f inbound2=%.2f", agg1, agg2)
	}
	// With reliable triggers the difference is small, but inbound=1 must not
	// outperform systematically and both chains must stay alive.
	if e1.SelfStarts > 100 || e2.SelfStarts > 100 {
		t.Errorf("self-starts: inbound1=%d inbound2=%d", e1.SelfStarts, e2.SelfStarts)
	}
}

func TestNoFakeCoverStillWorks(t *testing.T) {
	agg, e := runWith(t, 2, func(c *Config) { c.NoFakeCover = true })
	if agg < 8 {
		t.Errorf("no-fake-cover run collapsed: %.2f Mbps", agg)
	}
	if e.FakeSends > e.DataSends/2 {
		t.Errorf("cover disabled but fake sends = %d vs data %d", e.FakeSends, e.DataSends)
	}
}

// TestUSRPGradeConfig exercises the Table 2 regime: 25 ms of host latency per
// frame. Slots stretch to ~50 ms, the ROP gap scales with them, and the
// chains must survive (this is the configuration that regenerates Table 2).
func TestUSRPGradeConfig(t *testing.T) {
	net := topo.TwoPairs(topo.HiddenTerminals)
	links := net.BuildLinks(true, false)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(3)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	cfg := DefaultConfig()
	cfg.ExtraFrameTime = 25 * sim.Millisecond
	engine := New(k, medium, g, hub, cfg)
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	k.RunUntil(30 * sim.Second)
	if engine.DataSends < 200 {
		t.Fatalf("USRP-grade chain moved only %d packets in 30 s", engine.DataSends)
	}
	if ratio := float64(engine.AckMisses) / float64(engine.DataSends); ratio > 0.1 {
		t.Errorf("ack miss ratio %.2f under inflated slots", ratio)
	}
	a := coll.ThroughputMbps(0, 30*sim.Second)
	b := coll.ThroughputMbps(1, 30*sim.Second)
	if f := stats.JainIndex([]float64{a, b}); f < 0.95 {
		t.Errorf("hidden pair unfair under USRP config: %.3f (%.4f vs %.4f)", f, a, b)
	}
}

// scheduleStats summarises e's built schedule: total entries, slots, ROP
// boundaries and entries without triggers.
func scheduleStats(e *Engine) (entries, slots, ropSlots, untriggered int) {
	slots = len(e.slots)
	for _, sl := range e.slots {
		entries += len(sl.Entries)
		if len(sl.ROPAfter) > 0 {
			ropSlots++
		}
		for _, en := range sl.Entries {
			if len(en.TriggeredBy) == 0 {
				untriggered++
			}
		}
	}
	return
}

// TestScheduleStatsAccessor checks the shape of a saturated Figure7 run's
// built schedule: non-empty, polled, triggered and well covered.
func TestScheduleStatsAccessor(t *testing.T) {
	_, e := runWith(t, 4, nil)
	entries, slots, ropSlots, untriggered := scheduleStats(e)
	if slots == 0 || entries == 0 {
		t.Fatalf("stats empty: %d entries, %d slots", entries, slots)
	}
	if ropSlots == 0 {
		t.Error("no ROP slots despite per-batch polling")
	}
	if untriggered > entries/10 {
		t.Errorf("%d/%d untriggered entries in a well-connected topology", untriggered, entries)
	}
	if float64(entries)/float64(slots) < 1.5 {
		t.Errorf("average cover %.2f too thin for Figure7", float64(entries)/float64(slots))
	}
}
