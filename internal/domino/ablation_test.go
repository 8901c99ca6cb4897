package domino

import (
	"testing"

	"repro/internal/convert"
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
	engine, k, coll := fig7Saturated(seed, mut, nil)
	k.RunUntil(2 * sim.Second)
	return coll.AggregateMbps(2 * sim.Second), engine
}

// fig7Saturated builds and starts, without running, a saturated Figure7
// engine under a mutated config; hook, when non-nil, sees the engine before
// it starts.
func fig7Saturated(seed int64, mut func(*Config), hook func(*Engine)) (*Engine, *sim.Kernel, *stats.Collector) {
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
	if hook != nil {
		hook(engine)
	}
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	return engine, k, coll
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

// scheduleStats summarises a built schedule, plan by plan as the engine's
// plan hook sees them: total entries, slots, ROP boundaries and entries
// without triggers.
type scheduleStats struct {
	entries, slots, ropSlots, untriggered int
}

func (s *scheduleStats) add(p *convert.Plan) {
	s.slots += len(p.Slots)
	for _, sl := range p.Slots {
		s.entries += len(sl.Entries)
		if len(sl.ROPAfter) > 0 {
			s.ropSlots++
		}
		for _, en := range sl.Entries {
			if len(en.TriggeredBy) == 0 {
				s.untriggered++
			}
		}
	}
}

// TestScheduleStatsAccessor checks the shape of a saturated Figure7 run's
// built schedule: non-empty, polled, triggered and well covered.
func TestScheduleStatsAccessor(t *testing.T) {
	var st scheduleStats
	e, k, _ := fig7Saturated(4, nil, func(e *Engine) { e.onPlan = st.add })
	k.RunUntil(2 * sim.Second)
	entries, slots, ropSlots, untriggered := st.entries, st.slots, st.ropSlots, st.untriggered
	if slots != e.Slots() {
		t.Fatalf("plans held %d slots, engine scheduled %d", slots, e.Slots())
	}
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

// fig7SlotsAt40s is Slots() after 40 s of the saturated Figure7 run with seed
// 1, as the engine counted it when it kept every slot since t = 0.
const fig7SlotsAt40s = 92112

// TestSlotWindowBounded: the slot log of a saturated run slides, holding a
// constant window of at most two batches while the global slot count keeps
// its full-log value.
func TestSlotWindowBounded(t *testing.T) {
	e, k, _ := fig7Saturated(1, nil, nil)
	k.RunUntil(10 * sim.Second)
	at10 := len(e.log)
	k.RunUntil(40 * sim.Second)
	at40 := len(e.log)
	if at10 != at40 {
		t.Errorf("window holds %d slots at 10 s but %d at 40 s", at10, at40)
	}
	if limit := 2 * e.cfg.BatchSize; at40 > limit {
		t.Errorf("window holds %d slots, more than two batches (%d)", at40, limit)
	}
	if e.Slots() != fig7SlotsAt40s {
		t.Errorf("Slots() = %d after 40 s, want %d", e.Slots(), fig7SlotsAt40s)
	}
	if e.base+len(e.log) != e.Slots() || e.base == 0 {
		t.Errorf("window [%d, %d) does not end at Slots() = %d or never slid", e.base, e.base+len(e.log), e.Slots())
	}
	t.Logf("window [%d, %d): %d slots", e.base, e.Slots(), at40)
}

// TestSlotBelowWindowPanics: a read of a slot that slid out of the log is a
// broken floor, never a silent fallback.
func TestSlotBelowWindowPanics(t *testing.T) {
	e, k, _ := fig7Saturated(1, nil, nil)
	k.RunUntil(sim.Second)
	if e.base == 0 {
		t.Fatal("the window never slid in 1 s")
	}
	_ = e.slot(e.base) // the oldest retained slot reads fine
	defer func() {
		if recover() == nil {
			t.Error("reading slot base-1 did not panic")
		}
	}()
	e.slot(e.base - 1)
}

// overtakingDispatches mutates the config so that, with one-slot batches
// and wired jitter far above a slot, a batch's dispatch often reaches an AP
// after the next batch's.
func overtakingDispatches(c *Config) {
	c.BatchSize = 1
	c.WiredLatencyMean = 5 * sim.Millisecond
	c.WiredLatencyStd = 5 * sim.Millisecond
}

// TestSlotWindowOvertakenDispatches: when dispatches overtake each other on
// the wire, the window still slides and the run goes on.
func TestSlotWindowOvertakenDispatches(t *testing.T) {
	e, k, coll := fig7Saturated(3, overtakingDispatches, nil)
	k.RunUntil(sim.Second)
	if agg := coll.AggregateMbps(sim.Second); agg <= 0 || e.base == 0 {
		t.Errorf("run moved %.2f Mbps and slid the window to base %d", agg, e.base)
	}
}

// TestAPActionsNeverRequeued: a dispatch that arrives after a later batch's
// adds nothing to the AP's schedule. Before every event of a run whose
// dispatches overtake each other, each AP's pending actions are strictly
// ascending (a slot's send before its poll), and the list's front never
// moves back: actions leave only from the front and join only at the back,
// so an action queued twice would show as one or the other.
func TestAPActionsNeverRequeued(t *testing.T) {
	e, k, _ := fig7Saturated(3, overtakingDispatches, nil)
	key := func(a action) int { return 2*a.slot + int(a.kind) }
	// front is the least key the AP's front may have: the front's key, or
	// past every key queued so far (hi) while the list is empty.
	type bounds struct{ front, hi int }
	seen := map[*apNode]*bounds{}
	for _, ap := range e.aps {
		seen[ap] = &bounds{front: 0, hi: -1}
	}
	events := 0
	k.OnEvent(func(sim.EventInfo) {
		events++
		for _, ap := range e.aps {
			b, acts := seen[ap], ap.actions
			for i := 1; i < len(acts); i++ {
				if key(acts[i]) <= key(acts[i-1]) {
					t.Fatalf("AP %d at %v: actions %v not strictly ascending", ap.id, k.Now(), acts)
				}
			}
			if len(acts) == 0 {
				b.front = b.hi + 1
				continue
			}
			if key(acts[0]) < b.front {
				t.Fatalf("AP %d at %v: action %+v queued again", ap.id, k.Now(), acts[0])
			}
			b.front, b.hi = key(acts[0]), max(b.hi, key(acts[len(acts)-1]))
		}
	})
	k.RunUntil(500 * sim.Millisecond)
	if e.Slots() < 100 {
		t.Fatalf("only %d slots scheduled in 500 ms", e.Slots())
	}
	t.Logf("%d events, %d slots checked", events, e.Slots())
}
