package centaur

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestEpochBarrier checks the §4.2.3 mechanism directly: the next epoch is
// not scheduled until every AP reports completion, so a slow AP gates fast
// ones.
func TestEpochBarrier(t *testing.T) {
	net := topo.Figure13b()
	links := net.BuildLinks(true, false)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(7)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	engine := New(k, medium, g, hub, DefaultConfig())
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 16)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	k.RunUntil(2 * sim.Second)
	// AP4 (link 3, node 6) senses everyone and always defers; in 13(b) its
	// per-epoch completion gates AP1-AP3, so all four links converge to the
	// SAME throughput: the barrier equalises them at AP4's pace.
	rates := coll.PerLinkMbps(2 * sim.Second)
	f := stats.JainIndex(rates)
	if f < 0.97 {
		t.Errorf("barrier should equalise links: fairness %.3f (%v)", f, rates)
	}
	// And the epoch count stays far below what unconstrained APs would do.
	if engine.Epochs < 10 {
		t.Errorf("epochs = %d; scheduler stalled", engine.Epochs)
	}
}

// deliveryCount is a mac.Events sink that counts outcomes.
type deliveryCount struct{ delivered, dropped int }

func (c *deliveryCount) Delivered(*mac.Packet, sim.Time) { c.delivered++ }
func (c *deliveryCount) Dropped(*mac.Packet, sim.Time)   { c.dropped++ }

// TestIdleEngineReschedules: with no traffic the epoch builder must keep
// polling for demand rather than deadlock, and a packet arriving late is
// still delivered.
func TestIdleEngineReschedules(t *testing.T) {
	net := topo.TwoPairs(topo.ExposedTerminals)
	links := net.BuildLinks(true, false)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(8)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	var count deliveryCount
	engine := New(k, medium, g, &count, DefaultConfig())
	engine.Start()
	k.RunUntil(200 * sim.Millisecond)
	if engine.Epochs < 100 {
		t.Errorf("idle engine built %d epochs; should keep checking", engine.Epochs)
	}
	engine.Enqueue(mac.Packet{Link: int32(links[0].ID), Bytes: 512, Enqueued: k.Now()})
	k.RunUntil(300 * sim.Millisecond)
	if engine.QueueLen(0) != 0 {
		t.Errorf("late packet still queued")
	}
	if count.delivered != 1 || count.dropped != 0 {
		t.Errorf("late packet: %d delivered, %d dropped; want 1 delivered", count.delivered, count.dropped)
	}
}

// TestEpochsSurviveReorderingJitter runs saturated Fig 7 with 5±5 ms wired
// latency, so epoch dispatches and completion reports overtake each other
// on the backbone, and checks the epoch barrier before every event: no AP's
// epoch is replaced while it still has unserved items, and an epoch is built
// only in an event that empties awaiting (at most the reporting AP was still
// awaited before it).
func TestEpochsSurviveReorderingJitter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		net := topo.Figure7()
		links := net.BuildLinks(true, true)
		g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
		k := sim.New(seed)
		medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
		hub := &mac.Hub{}
		cfg := DefaultConfig()
		cfg.WiredLatencyMean, cfg.WiredLatencyStd = 5*sim.Millisecond, 5*sim.Millisecond
		engine := New(k, medium, g, hub, cfg)
		coll := stats.NewCollector(len(links), 0)
		hub.Add(coll)
		for _, l := range links {
			s := traffic.NewSaturated(k, engine, l, 512, 16)
			hub.Add(s)
			s.Start()
		}

		type held struct {
			epoch []epochItem
			idx   int
		}
		prev := map[phy.NodeID]held{}
		prevAwaiting, prevEpochs := 0, 0
		// Dispatches leave in ascending AP order; an AP receiving its
		// epoch after a higher-numbered AP of the same epoch was overtaken.
		lastSeq, lastAP, overtaken := 0, phy.NodeID(-1), 0
		k.OnEvent(func(ev sim.EventInfo) {
			if d := engine.Epochs - prevEpochs; d > 1 || d == 1 && prevAwaiting > 1 {
				t.Fatalf("seed %d, %v: %d epochs built with %d APs awaited", seed, ev.Now, d, prevAwaiting)
			}
			for id, a := range engine.aps {
				p := prev[id]
				if len(a.epoch) > 0 && (len(p.epoch) == 0 || &a.epoch[0] != &p.epoch[0]) {
					if len(p.epoch) > 0 && p.idx < len(p.epoch) {
						t.Fatalf("seed %d, %v: AP %d's epoch replaced with %d of %d items unserved",
							seed, ev.Now, id, len(p.epoch)-p.idx, len(p.epoch))
					}
					if engine.epochSeq == lastSeq && id < lastAP {
						overtaken++
					}
					lastSeq, lastAP = engine.epochSeq, id
				}
				prev[id] = held{a.epoch, a.epochIdx}
			}
			prevAwaiting, prevEpochs = len(engine.awaiting), engine.Epochs
		})
		engine.Start()
		k.RunUntil(3 * sim.Second)
		if overtaken == 0 || engine.Epochs < 30 {
			t.Fatalf("seed %d: %d epochs, %d overtaken dispatches: the jitter did not reorder the backbone", seed, engine.Epochs, overtaken)
		}
		t.Logf("seed %d: %d epochs, %d overtaken dispatches, %.2f Mbps", seed, engine.Epochs, overtaken, coll.AggregateMbps(3*sim.Second))
	}
}
