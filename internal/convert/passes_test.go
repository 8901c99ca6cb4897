package convert

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/strict"
	"repro/internal/topo"
)

// planFor builds a fresh plan the way ConvertPlan does, without running any
// pass — per-pass tests apply stages one at a time.
func planFor(c *Converter, batch strict.Schedule, pollAPs []phy.NodeID) *Plan {
	return &Plan{
		Batch: batch, PollAPs: pollAPs, Prev: c.prev,
		g: c.G, maxInbound: c.MaxInbound, maxOutbound: c.MaxOutbound,
	}
}

func TestFakeLinkInsertPassMaximalCover(t *testing.T) {
	g := fig7Graph(t, true, false) // conflicts {0,1},{2,3}
	c := New(g)
	p := planFor(c, strict.Schedule{{0}}, nil)
	FakeLinkInsert(c, p)
	if len(p.Slots) != 1 {
		t.Fatalf("slots = %d, want 1", len(p.Slots))
	}
	in := map[int]bool{}
	for _, e := range p.Slots[0].Entries {
		in[e.Link.ID] = true
	}
	if !in[0] {
		t.Error("scheduled link 0 missing from the cover")
	}
	// Maximality: every absent link conflicts with some cover member.
	for id := range g.Links {
		if in[id] {
			continue
		}
		blocked := false
		for member := range in {
			if g.Conflicts(id, member) {
				blocked = true
				break
			}
		}
		if !blocked {
			t.Errorf("cover is not maximal: link %d could be added", id)
		}
	}
	if p.Stats.RealEntries != 1 || p.Stats.FakeEntries != len(p.Slots[0].Entries)-1 {
		t.Errorf("stats real=%d fake=%d, want 1 and %d",
			p.Stats.RealEntries, p.Stats.FakeEntries, len(p.Slots[0].Entries)-1)
	}
	if p.Stats.Slots != 1 {
		t.Errorf("stats slots = %d", p.Stats.Slots)
	}
}

func TestFakeLinkInsertPassDisabled(t *testing.T) {
	g := fig7Graph(t, true, false)
	c := New(g)
	c.DisableFakeCover = true
	p := planFor(c, strict.Schedule{{0}, {2}}, nil)
	FakeLinkInsert(c, p)
	for si, s := range p.Slots {
		if len(s.Entries) != 1 || s.Entries[0].Fake {
			t.Errorf("slot %d = %+v, want the bare scheduled link", si, s.Entries)
		}
	}
	if p.Stats.FakeEntries != 0 || p.Stats.RealEntries != 2 {
		t.Errorf("stats real=%d fake=%d", p.Stats.RealEntries, p.Stats.FakeEntries)
	}
}

func TestTriggerAssignPassIntraBatchOnly(t *testing.T) {
	g := fig7Graph(t, true, true)
	c := New(g)
	p := planFor(c, saturatedBatch(g, 4), nil)
	FakeLinkInsert(c, p)
	TriggerAssign(c, p)
	for _, e := range p.Slots[0].Entries {
		if len(e.TriggeredBy) != 0 {
			t.Error("slot 0 gained triggers before BatchConnect ran")
		}
	}
	for si := 1; si < len(p.Slots); si++ {
		for _, e := range p.Slots[si].Entries {
			if len(e.TriggeredBy) == 0 {
				t.Errorf("slot %d: %v untriggered", si, e.Link)
			}
		}
	}
	if last := p.Slots[len(p.Slots)-1]; len(last.Broadcasts) != 0 {
		t.Error("last slot broadcasts must stay empty until the next batch connects")
	}
	if p.Stats.Triggers == 0 {
		t.Error("no triggers counted")
	}
	if p.Stats.BoundaryTriggers != 0 {
		t.Errorf("BoundaryTriggers = %d before BatchConnect", p.Stats.BoundaryTriggers)
	}
}

func TestBatchConnectPassWiresBoundary(t *testing.T) {
	g := fig7Graph(t, true, true)
	c := New(g)
	c.ConvertPlan(saturatedBatch(g, 3), nil)
	retained := c.prev
	if retained == nil {
		t.Fatal("no retained slot after the first batch")
	}

	p := planFor(c, saturatedBatch(g, 3), nil)
	FakeLinkInsert(c, p)
	TriggerAssign(c, p)
	BatchConnect(c, p)
	if p.Stats.BoundaryTriggers == 0 {
		t.Error("BatchConnect assigned no boundary triggers")
	}
	if len(retained.Broadcasts) == 0 {
		t.Error("BatchConnect left the retained slot's broadcasts empty")
	}
	for _, e := range p.Slots[0].Entries {
		if len(e.TriggeredBy) == 0 {
			t.Errorf("slot 0 entry %v untriggered despite batch connection", e.Link)
		}
	}
}

func TestBatchConnectPassFirstBatchNoop(t *testing.T) {
	g := fig7Graph(t, true, true)
	c := New(g)
	p := planFor(c, saturatedBatch(g, 2), nil)
	FakeLinkInsert(c, p)
	TriggerAssign(c, p)
	BatchConnect(c, p)
	if p.Stats.BoundaryTriggers != 0 {
		t.Errorf("first batch BoundaryTriggers = %d", p.Stats.BoundaryTriggers)
	}
	for _, e := range p.Slots[0].Entries {
		if len(e.TriggeredBy) != 0 {
			t.Error("first batch slot 0 must stay untriggered (APs self-start)")
		}
	}
}

func TestROPInsertPassPlacesEveryAP(t *testing.T) {
	net := topo.Figure7()
	g := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
	c := New(g)
	p := planFor(c, saturatedBatch(g, 6), net.APs)
	FakeLinkInsert(c, p)
	TriggerAssign(c, p)
	BatchConnect(c, p)
	ROPInsert(c, p)
	polled := map[phy.NodeID]bool{}
	ropSlots := 0
	for _, s := range p.Slots {
		if len(s.ROPAfter) > 0 {
			ropSlots++
		}
		for _, ap := range s.ROPAfter {
			polled[ap] = true
		}
	}
	for _, ap := range net.APs {
		if !polled[ap] {
			t.Errorf("AP %d never polls", ap)
		}
	}
	if p.Stats.ROPSlots != ropSlots {
		t.Errorf("Stats.ROPSlots = %d, slots with polls = %d", p.Stats.ROPSlots, ropSlots)
	}
	if p.Stats.ROPForced != 0 || len(p.ForcedROP) != 0 {
		t.Errorf("well-connected topology forced placements: %v", p.ForcedROP)
	}
}

func TestROPInsertPassRecordsForcedPlacement(t *testing.T) {
	net := topo.Figure13b() // interference domains out of trigger range
	g := topo.NewConflictGraph(net, net.BuildLinks(true, false), phy.DefaultConfig(), phy.Rate12)
	c := New(g)
	c.DisableFakeCover = true
	// Only link 0 transmits; AP 2 (another domain) still has to poll, so the
	// converter must fall back to a forced slot-0 placement.
	p := c.ConvertPlan(strict.Schedule{{0}}, []phy.NodeID{2})
	if len(p.ForcedROP) != 1 || p.ForcedROP[0] != 2 {
		t.Fatalf("ForcedROP = %v, want [2]", p.ForcedROP)
	}
	if p.Stats.ROPForced != 1 {
		t.Errorf("Stats.ROPForced = %d", p.Stats.ROPForced)
	}
	if err := Verify(p); err != nil {
		t.Errorf("Verify must exempt forced placements: %v", err)
	}
}

// TestConvertPlanMatchesConvert: two converters fed equal batches on equal
// graphs produce plans of the same shape, batch after batch.
func TestConvertPlanMatchesConvert(t *testing.T) {
	net := topo.Figure7()
	g1 := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
	net2 := topo.Figure7()
	g2 := topo.NewConflictGraph(net2, net2.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
	c1, c2 := New(g1), New(g2)
	for batch := 0; batch < 3; batch++ {
		b1 := saturatedBatch(g1, 5)
		b2 := saturatedBatch(g2, 5)
		p := c1.ConvertPlan(b1, net.APs)
		rs := c2.ConvertPlan(b2, net2.APs)
		if len(p.Slots) != len(rs.Slots) {
			t.Fatalf("batch %d: slot counts differ", batch)
		}
		for i := range p.Slots {
			a, b := p.Slots[i], rs.Slots[i]
			if len(a.Entries) != len(b.Entries) || len(a.Broadcasts) != len(b.Broadcasts) ||
				len(a.ROPAfter) != len(b.ROPAfter) {
				t.Fatalf("batch %d slot %d shapes differ", batch, i)
			}
			for j := range a.Entries {
				if a.Entries[j].Link.ID != b.Entries[j].Link.ID ||
					a.Entries[j].Fake != b.Entries[j].Fake ||
					len(a.Entries[j].TriggeredBy) != len(b.Entries[j].TriggeredBy) {
					t.Fatalf("batch %d slot %d entry %d differs", batch, i, j)
				}
			}
		}
	}
}

func TestConvertPlanStatsConsistency(t *testing.T) {
	net := topo.Figure7()
	g := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
	c := New(g)
	p := c.ConvertPlan(saturatedBatch(g, 6), net.APs)
	entries := 0
	for _, s := range p.Slots {
		entries += len(s.Entries)
	}
	if p.Stats.RealEntries+p.Stats.FakeEntries != entries {
		t.Errorf("real %d + fake %d != %d entries",
			p.Stats.RealEntries, p.Stats.FakeEntries, entries)
	}
	if p.Stats.Slots != len(p.Slots) {
		t.Errorf("Stats.Slots = %d, len = %d", p.Stats.Slots, len(p.Slots))
	}
	if p.Stats.Untriggered != c.Untriggered {
		t.Errorf("Stats.Untriggered = %d, converter total %d", p.Stats.Untriggered, c.Untriggered)
	}
}
