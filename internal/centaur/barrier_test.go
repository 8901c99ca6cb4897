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
