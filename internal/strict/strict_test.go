package strict

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func graphFor(t *testing.T, net *topo.Network, down, up bool) *topo.ConflictGraph {
	t.Helper()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo.NewConflictGraph(net, net.BuildLinks(down, up), phy.DefaultConfig(), phy.Rate12)
}

func TestRANDSlotIndependence(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, true)
	r := NewRAND(g)
	all := func(int) int { return 1 }
	for i := 0; i < 20; i++ {
		slot := r.AppendSlot(nil, all)
		if len(slot) == 0 {
			t.Fatal("saturated network produced empty slot")
		}
		for a := 0; a < len(slot); a++ {
			for b := a + 1; b < len(slot); b++ {
				if g.Conflicts(slot[a], slot[b]) {
					t.Fatalf("slot %v contains conflicting links", slot)
				}
			}
		}
		// Maximality: no backlogged link outside the slot is compatible.
		for id := range g.Links {
			in := false
			for _, s := range slot {
				if s == id {
					in = true
				}
			}
			if in {
				continue
			}
			ok := true
			for _, s := range slot {
				if g.Conflicts(id, s) {
					ok = false
				}
			}
			if ok {
				t.Fatalf("slot %v not maximal: link %d fits", slot, id)
			}
		}
	}
}

func TestRANDFairRotation(t *testing.T) {
	// In Figure 7's downlink graph (conflicts {0,1} and {2,3}), RAND must
	// alternate between the two halves of each conflicting pair — the
	// schedule of paper Fig 7(c).
	g := graphFor(t, topo.Figure7(), true, false)
	r := NewRAND(g)
	counts := make([]int, 4)
	for i := 0; i < 40; i++ {
		for _, id := range r.AppendSlot(nil, func(int) int { return 1 }) {
			counts[id]++
		}
	}
	for id, c := range counts {
		if c != 20 {
			t.Errorf("link %d scheduled %d/40 slots, want exactly 20 (alternation)", id, c)
		}
	}
}

func TestRANDSkipsIdleLinks(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	r := NewRAND(g)
	slot := r.AppendSlot(nil, func(id int) int {
		if id == 2 {
			return 1
		}
		return 0
	})
	if len(slot) != 1 || slot[0] != 2 {
		t.Fatalf("slot = %v, want [2]", slot)
	}
	if s := r.AppendSlot(nil, func(int) int { return 0 }); s != nil {
		t.Fatalf("idle network returned slot %v", s)
	}
}

func TestRANDBatch(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	r := NewRAND(g)
	est := []int{2, 1, 1, 0}
	batch := (&Batcher{S: r}).Batch(est, 10)
	// Total scheduled transmissions must equal the estimates.
	got := make([]int, 4)
	for _, slot := range batch {
		for _, id := range slot {
			got[id]++
		}
	}
	for id := range est {
		if got[id] != est[id] {
			t.Errorf("link %d scheduled %d times, want %d", id, got[id], est[id])
		}
	}
	if len(batch) > 10 {
		t.Errorf("batch exceeded slot budget: %d", len(batch))
	}
	// Estimates unchanged (Batch must not mutate its argument).
	if est[0] != 2 {
		t.Error("Batch mutated the estimate slice")
	}
	// Slot budget respected under infinite backlog.
	long := (&Batcher{S: r}).Batch([]int{100, 100, 100, 100}, 7)
	if len(long) != 7 {
		t.Errorf("batch length = %d, want 7", len(long))
	}
}

func omniRig(t *testing.T, net *topo.Network, down, up bool, seed int64) (*sim.Kernel, *Omniscient, *stats.Collector, []*topo.Link) {
	t.Helper()
	g := graphFor(t, net, down, up)
	k := sim.New(seed)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	e := New(k, medium, g, hub, DefaultConfig())
	coll := stats.NewCollector(len(g.Links), 0)
	hub.Add(coll)
	for _, l := range g.Links {
		s := traffic.NewSaturated(k, e, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	e.Start()
	return k, e, coll, g.Links
}

func TestOmniscientSingleDomain(t *testing.T) {
	// Two conflicting links: perfect TDMA alternation, zero failures, each
	// link gets half the channel with no backoff overhead.
	k, e, coll, _ := omniRig(t, topo.TwoPairs(topo.SameContention), true, false, 1)
	k.RunUntil(2 * sim.Second)
	if e.Failures != 0 {
		t.Errorf("conflict-free schedule had %d failures", e.Failures)
	}
	a := coll.ThroughputMbps(0, 2*sim.Second)
	b := coll.ThroughputMbps(1, 2*sim.Second)
	// Slot = 364+10+32+9 = 415 µs -> 9.87 Mbps aggregate, 4.93 each.
	if a+b < 9.0 || a+b > 10.4 {
		t.Errorf("aggregate = %.2f, want ≈9.9", a+b)
	}
	if f := stats.JainIndex([]float64{a, b}); f < 0.999 {
		t.Errorf("TDMA fairness = %v", f)
	}
}

func TestOmniscientExposedConcurrency(t *testing.T) {
	// Four mutually exposed links (Fig 13a): all four transmit every slot.
	k, e, coll, links := omniRig(t, topo.Figure13a(), true, false, 2)
	k.RunUntil(2 * sim.Second)
	if e.Failures != 0 {
		t.Errorf("failures = %d", e.Failures)
	}
	for _, l := range links {
		tput := coll.ThroughputMbps(l.ID, 2*sim.Second)
		if tput < 9.0 {
			t.Errorf("link %v only %.2f Mbps; exposed links should all run at full rate", l, tput)
		}
	}
}

func TestOmniscientHiddenPairAlternates(t *testing.T) {
	// Hidden terminals are trivial for a synchronized scheduler: perfect
	// alternation, no collisions at all.
	k, e, coll, _ := omniRig(t, topo.TwoPairs(topo.HiddenTerminals), true, false, 3)
	k.RunUntil(2 * sim.Second)
	if e.Failures != 0 {
		t.Errorf("failures = %d", e.Failures)
	}
	if total := coll.AggregateMbps(2 * sim.Second); total < 9.0 {
		t.Errorf("hidden pair under omniscient = %.2f Mbps, want ≈9.9", total)
	}
}

// TestOmniscientFigure1 reproduces the omniscient bars of Fig 2: C2→AP2
// transmits in every slot while AP1→C1 and AP3→C3 alternate.
func TestOmniscientFigure1(t *testing.T) {
	net := topo.Figure1()
	links := topo.Figure1Links(net)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(4)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	e := New(k, medium, g, hub, DefaultConfig())
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, e, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	e.Start()
	k.RunUntil(4 * sim.Second)
	end := 4 * sim.Second
	ap1 := coll.ThroughputMbps(0, end)
	c2 := coll.ThroughputMbps(1, end)
	ap3 := coll.ThroughputMbps(2, end)
	if c2 < 9.0 {
		t.Errorf("C2→AP2 = %.2f Mbps, want full rate (scheduled every slot)", c2)
	}
	if ap1 < 4.2 || ap3 < 4.2 {
		t.Errorf("alternating links: AP1 %.2f, AP3 %.2f, want ≈4.9 each", ap1, ap3)
	}
	t.Logf("Fig1 omniscient: AP1→C1 %.2f, C2→AP2 %.2f, AP3→C3 %.2f Mbps", ap1, c2, ap3)
}

func TestOmniscientQueueDrainsIdle(t *testing.T) {
	// A finite burst drains and the executor idles without failures.
	net := topo.TwoPairs(topo.ExposedTerminals)
	g := graphFor(t, net, true, false)
	k := sim.New(5)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	e := New(k, medium, g, hub, DefaultConfig())
	var delivered int
	hub.Add(eventsCounter{&delivered})
	e.Start()
	for i := 0; i < 20; i++ {
		e.Enqueue(mac.Packet{Link: int32(g.Links[0].ID), Bytes: 512, Enqueued: 0})
	}
	k.RunUntil(sim.Second)
	if delivered != 20 {
		t.Errorf("delivered %d/20", delivered)
	}
	if e.QueueLen(0) != 0 {
		t.Errorf("queue not drained: %d", e.QueueLen(0))
	}
}

type eventsCounter struct{ n *int }

func (c eventsCounter) Delivered(*mac.Packet, sim.Time) { *c.n++ }
func (c eventsCounter) Dropped(*mac.Packet, sim.Time)   {}

// TestEnqueueFullQueueZeroAllocs pins that a tail drop allocates nothing:
// the refused arrival is reported from the engine's own scratch packet.
func TestEnqueueFullQueueZeroAllocs(t *testing.T) {
	net := topo.TwoPairs(topo.ExposedTerminals)
	g := graphFor(t, net, true, false)
	k := sim.New(5)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	cfg := DefaultConfig()
	cfg.QueueCap = 1
	e := New(k, medium, g, nil, cfg)
	p := mac.Packet{Link: int32(g.Links[0].ID), Bytes: 512}
	e.Enqueue(p)
	allocs := testing.AllocsPerRun(100, func() {
		if e.Enqueue(p) {
			t.Fatal("full queue accepted a packet")
		}
	})
	if allocs != 0 {
		t.Errorf("a refused Enqueue allocates %.1f times", allocs)
	}
}
