package topo

import (
	"math/rand"
	"testing"

	"repro/internal/phy"
)

func defaultGraph(t *testing.T, n *Network, down, up bool) *ConflictGraph {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid network: %v", err)
	}
	links := n.BuildLinks(down, up)
	return NewConflictGraph(n, links, phy.DefaultConfig(), phy.Rate12)
}

func findLink(t *testing.T, g *ConflictGraph, sender, receiver phy.NodeID) *Link {
	t.Helper()
	for _, l := range g.Links {
		if l.Sender == sender && l.Receiver == receiver {
			return l
		}
	}
	t.Fatalf("no link %d→%d", sender, receiver)
	return nil
}

func TestNetworkValidate(t *testing.T) {
	n := Figure1()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Break the association.
	n.APOf[1] = 1
	if err := n.Validate(); err == nil {
		t.Fatal("client associated with non-AP passed validation")
	}
}

func TestClientsAndLinks(t *testing.T) {
	n := Figure7()
	for _, ap := range n.APs {
		cs := n.Clients(ap)
		if len(cs) != 1 || cs[0] != ap+1 {
			t.Fatalf("Clients(%d) = %v", ap, cs)
		}
	}
	both := n.BuildLinks(true, true)
	if len(both) != 8 {
		t.Fatalf("links = %d, want 8", len(both))
	}
	for i, l := range both {
		if l.ID != i {
			t.Errorf("link %d has ID %d", i, l.ID)
		}
		if l.Downlink && (l.Sender != l.AP || !n.IsAP[l.Sender]) {
			t.Errorf("downlink %v malformed", l)
		}
		if !l.Downlink && (l.Receiver != l.AP || n.IsAP[l.Sender]) {
			t.Errorf("uplink %v malformed", l)
		}
	}
	down := n.BuildLinks(true, false)
	if len(down) != 4 {
		t.Fatalf("downlinks = %d", len(down))
	}
}

func TestLinkStringAndShares(t *testing.T) {
	a := &Link{Sender: 0, Receiver: 1, AP: 0, Downlink: true}
	b := &Link{Sender: 1, Receiver: 0, AP: 0, Downlink: false}
	c := &Link{Sender: 2, Receiver: 3, AP: 2, Downlink: true}
	if a.String() != "AP0→C1" || b.String() != "C1→AP0" {
		t.Errorf("String: %q, %q", a.String(), b.String())
	}
	if !a.Shares(b) || a.Shares(c) {
		t.Error("Shares misclassifies")
	}
}

// TestFigure1Relations pins the relations the paper states for Fig 1: AP1 and
// AP3 are hidden terminals; C2 and AP1 are exposed; C2→AP2 conflicts with
// nothing.
func TestFigure1Relations(t *testing.T) {
	n := Figure1()
	links := Figure1Links(n)
	g := NewConflictGraph(n, links, phy.DefaultConfig(), phy.Rate12)
	d1, u2, d3 := 0, 1, 2

	if !g.Conflicts(d1, d3) {
		t.Error("AP1→C1 and AP3→C3 must conflict")
	}
	if !g.Hidden(d1, d3) {
		t.Error("AP1/AP3 must be a hidden pair")
	}
	if g.Conflicts(d1, u2) {
		t.Error("AP1→C1 and C2→AP2 must not conflict")
	}
	if !g.Exposed(d1, u2) {
		t.Error("AP1 and C2 must be an exposed pair")
	}
	if g.Conflicts(u2, d3) || g.Exposed(u2, d3) || g.Hidden(u2, d3) {
		t.Error("C2→AP2 and AP3→C3 must be independent")
	}
	// Degrees: the omniscient schedule alternates d1/d3 with u2 always on.
	if g.Degree(u2) != 0 || g.Degree(d1) != 1 || g.Degree(d3) != 1 {
		t.Errorf("degrees = %d,%d,%d", g.Degree(d1), g.Degree(u2), g.Degree(d3))
	}
}

// TestFigure7Relations pins the relations of Fig 7: downlink conflicts
// {1,2} and {3,4}, AP3/AP4 hidden, cross-chain slots compatible.
func TestFigure7Relations(t *testing.T) {
	n := Figure7()
	g := defaultGraph(t, n, true, true)
	d := func(pair int) int { // downlink of pair i (1-based)
		return findLink(t, g, phy.NodeID(2*(pair-1)), phy.NodeID(2*(pair-1)+1)).ID
	}
	u := func(pair int) int {
		return findLink(t, g, phy.NodeID(2*(pair-1)+1), phy.NodeID(2*(pair-1))).ID
	}

	if !g.Conflicts(d(1), d(2)) || !g.Conflicts(d(3), d(4)) {
		t.Error("intra-chain downlinks must conflict")
	}
	if g.Conflicts(d(1), d(4)) || g.Conflicts(d(2), d(3)) {
		t.Error("cross-chain downlinks must be schedulable together (Fig 7c)")
	}
	if !g.Hidden(d(3), d(4)) {
		t.Error("AP3/AP4 must be hidden")
	}
	if g.Hidden(d(1), d(2)) {
		t.Error("AP1/AP2 conflict but sense each other: not hidden")
	}
	if !g.Hidden(u(1), u(2)) {
		t.Error("C1/C2 uplinks must be hidden")
	}
	if !g.Conflicts(u(3), u(4)) {
		t.Error("uplinks of pairs 3,4 must conflict")
	}
	// Down and up of the same pair share nodes: conflict by definition.
	for p := 1; p <= 4; p++ {
		if !g.Conflicts(d(p), u(p)) {
			t.Errorf("pair %d up/down must conflict", p)
		}
	}
}

func TestFigure13Relations(t *testing.T) {
	a := Figure13a()
	ga := defaultGraph(t, a, true, false)
	if len(ga.Links) != 4 {
		t.Fatalf("13a links = %d", len(ga.Links))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if ga.Conflicts(i, j) {
				t.Errorf("13a: links %d,%d conflict", i, j)
			}
			if !ga.Exposed(i, j) {
				t.Errorf("13a: links %d,%d not exposed", i, j)
			}
		}
	}

	b := Figure13b()
	gb := defaultGraph(t, b, true, false)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if gb.Conflicts(i, j) {
				t.Errorf("13b: links %d,%d conflict", i, j)
			}
		}
	}
	// Only AP4's link is exposed to the others; AP1–AP3 are mutually
	// independent and cannot sense each other.
	l4 := findLink(t, gb, 6, 7).ID
	for i := 0; i < 4; i++ {
		if i == l4 {
			continue
		}
		if !gb.Exposed(i, l4) {
			t.Errorf("13b: link %d should be exposed with AP4's", i)
		}
		for j := i + 1; j < 4; j++ {
			if j == l4 {
				continue
			}
			if gb.SendersHear(i, j) {
				t.Errorf("13b: AP%d and AP%d must not sense each other", i, j)
			}
		}
	}
}

func TestTwoPairScenarios(t *testing.T) {
	for _, s := range []TwoPairScenario{SameContention, HiddenTerminals, ExposedTerminals} {
		n := TwoPairs(s)
		g := defaultGraph(t, n, true, false)
		if len(g.Links) != 2 {
			t.Fatalf("%v: %d links", s, len(g.Links))
		}
		conf, hear := g.Conflicts(0, 1), g.SendersHear(0, 1)
		switch s {
		case SameContention:
			if !conf || !hear {
				t.Errorf("SC: conflict=%v hear=%v, want true,true", conf, hear)
			}
		case HiddenTerminals:
			if !conf || hear {
				t.Errorf("HT: conflict=%v hear=%v, want true,false", conf, hear)
			}
			if !g.Hidden(0, 1) {
				t.Error("HT: not classified hidden")
			}
		case ExposedTerminals:
			if conf || !hear {
				t.Errorf("ET: conflict=%v hear=%v, want false,true", conf, hear)
			}
			if !g.Exposed(0, 1) {
				t.Error("ET: not classified exposed")
			}
		}
	}
	if SameContention.String() != "SC" || HiddenTerminals.String() != "HT" ||
		ExposedTerminals.String() != "ET" || TwoPairScenario(9).String() != "?" {
		t.Error("scenario names wrong")
	}
}

func TestMaximalIndependentSet(t *testing.T) {
	n := Figure7()
	g := defaultGraph(t, n, true, false) // 4 downlinks: conflicts {0,1},{2,3}
	order := []int{0, 1, 2, 3}
	set := g.MaximalIndependentSetInto(nil, nil, nil, order)
	if len(set) != 2 {
		t.Fatalf("MIS = %v", set)
	}
	// Verify independence.
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.Conflicts(set[i], set[j]) {
				t.Fatalf("MIS %v not independent", set)
			}
		}
	}
	// Seeded version keeps the seed.
	set2 := g.MaximalIndependentSetInto(nil, nil, []int{1}, order)
	if set2[0] != 1 {
		t.Fatalf("seed dropped: %v", set2)
	}
	for _, id := range set2[1:] {
		if g.Conflicts(id, 1) {
			t.Fatalf("seeded MIS %v conflicts with seed", set2)
		}
	}
	// Maximality: no remaining link can be added.
	for _, cand := range order {
		in := false
		for _, s := range set {
			if s == cand {
				in = true
			}
		}
		if in {
			continue
		}
		ok := true
		for _, s := range set {
			if g.Conflicts(cand, s) {
				ok = false
			}
		}
		if ok {
			t.Fatalf("MIS %v not maximal: %d fits", set, cand)
		}
	}
}

func TestCanTrigger(t *testing.T) {
	n := Figure7()
	g := defaultGraph(t, n, true, true)
	d4 := findLink(t, g, 6, 7) // AP4→C4
	// Fig 10 point 1: the receiver C4 triggers AP3 (C4↔AP3 at trigger level).
	if !g.CanTriggerNode(d4, 4) {
		t.Error("AP4→C4 must be able to trigger AP3 via its receiver C4")
	}
	// A link always triggers its own endpoints.
	if !g.CanTriggerNode(d4, 6) || !g.CanTriggerNode(d4, 7) {
		t.Error("link must trigger its own endpoints")
	}
	// Distant node: AP4→C4 cannot trigger C2 (=3)? C2 couples to chain 2 via
	// AP3/C3 only.
	if g.CanTriggerNode(d4, 3) {
		t.Error("AP4→C4 should not reach C2")
	}
}

func TestAPConflict(t *testing.T) {
	n := Figure7()
	g := defaultGraph(t, n, true, true)
	if !g.APConflict(0, 2) {
		t.Error("AP1 and AP2 have conflicting links")
	}
	if g.APConflict(0, 6) {
		t.Error("AP1 and AP4 should be ROP-compatible")
	}
}

func TestCampusTraceShape(t *testing.T) {
	tr := CampusTrace(7)
	if len(tr.RSS) != 40 || len(tr.Pos) != 40 {
		t.Fatalf("trace has %d nodes", len(tr.RSS))
	}
	// Symmetry and plausible range.
	for i := range tr.RSS {
		for j := range tr.RSS {
			if tr.RSS[i][j] != tr.RSS[j][i] {
				t.Fatalf("asymmetric RSS at %d,%d", i, j)
			}
			if i != j && (tr.RSS[i][j] > -10 || tr.RSS[i][j] < -160) {
				t.Fatalf("implausible RSS %v", tr.RSS[i][j])
			}
		}
	}
	// Two buildings: cross-building links are much weaker on average.
	var in, cross float64
	var nIn, nCross int
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if (i < 20) == (j < 20) {
				in += tr.RSS[i][j]
				nIn++
			} else {
				cross += tr.RSS[i][j]
				nCross++
			}
		}
	}
	if in/float64(nIn) <= cross/float64(nCross)+10 {
		t.Errorf("wall loss not visible: in=%.1f cross=%.1f", in/float64(nIn), cross/float64(nCross))
	}
	// Determinism.
	tr2 := CampusTrace(7)
	if tr2.RSS[3][17] != tr.RSS[3][17] {
		t.Error("trace not reproducible from seed")
	}
}

// TestCampusTraceRSSDiff checks the statistic ROP's guard-band design relies
// on (paper §3.1): only a tiny fraction of same-receiver link pairs differ by
// more than 38 dB (the paper's trace: 0.54%).
func TestCampusTraceRSSDiff(t *testing.T) {
	tr := CampusTrace(7)
	ratio := RSSDiffExceedRatio(tr.RSS, 38, -94)
	if ratio > 0.05 {
		t.Errorf("RSS>38dB pair ratio = %.4f, want small (paper: 0.0054)", ratio)
	}
	if RSSDiffExceedRatio(tr.RSS, 0, -94) <= ratio {
		t.Error("threshold 0 must exceed threshold 38 ratio")
	}
	if got := RSSDiffExceedRatio(nil, 38, -94); got != 0 {
		t.Errorf("empty trace ratio = %v", got)
	}
}

func TestBuildT(t *testing.T) {
	tr := CampusTrace(7)
	rng := rand.New(rand.NewSource(3))
	net, err := BuildT(tr, 10, 2, phy.DefaultConfig(), phy.Rate12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(net.APs) != 10 || net.NumNodes() != 30 {
		t.Fatalf("T(10,2): %d APs, %d nodes", len(net.APs), net.NumNodes())
	}
	// Every client must be in communication range of its AP.
	for id := 0; id < net.NumNodes(); id++ {
		if net.IsAP[id] {
			continue
		}
		ap := net.APOf[id]
		if net.RSS[ap][id] < AssocFloorDBm {
			t.Errorf("client %d out of range of AP %d (RSS %.1f)", id, ap, net.RSS[ap][id])
		}
	}
	// Exhausting the trace errors cleanly.
	if _, err := BuildT(tr, 100, 2, phy.DefaultConfig(), phy.Rate12, rng); err == nil {
		t.Error("oversubscribed BuildT should fail")
	}
}

func TestBuildTHiddenExposedStatistics(t *testing.T) {
	// The paper's T(10,2) has 10 hidden and 62 exposed of 720 pairs. Exact
	// counts depend on the trace; assert the same order of magnitude.
	tr := CampusTrace(7)
	rng := rand.New(rand.NewSource(3))
	net, err := BuildT(tr, 10, 2, phy.DefaultConfig(), phy.Rate12, rng)
	if err != nil {
		t.Fatal(err)
	}
	links := net.BuildLinks(true, true)
	if len(links) != 40 {
		t.Fatalf("links = %d", len(links))
	}
	g := NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	h, e, total := g.CountHiddenExposed()
	if total != 40*39/2 {
		t.Fatalf("total pairs = %d", total)
	}
	t.Logf("T(10,2): %d hidden, %d exposed of %d pairs", h, e, total)
	if h == 0 {
		t.Error("expected some hidden pairs in a two-building trace")
	}
	if e == 0 {
		t.Error("expected some exposed pairs")
	}
}

func TestRandomTrace(t *testing.T) {
	tr := RandomTrace(11, 110, 800)
	if len(tr.RSS) != 110 {
		t.Fatalf("nodes = %d", len(tr.RSS))
	}
	for _, p := range tr.Pos {
		if p.X < 0 || p.X > 800 || p.Y < 0 || p.Y > 800 {
			t.Fatalf("node outside area: %+v", p)
		}
	}
	// A T(20,3) — 80 selected nodes — must usually be constructible from a
	// 110-node placement (Fig 14 builds 50 of them, skipping infeasible
	// seeds).
	okCount := 0
	for seed := int64(0); seed < 10; seed++ {
		tr := RandomTrace(seed, 110, 800)
		rng := rand.New(rand.NewSource(seed))
		net, err := BuildT(tr, 20, 3, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			continue
		}
		if net.NumNodes() != 80 {
			t.Fatalf("T(20,3) has %d nodes, want 80", net.NumNodes())
		}
		okCount++
	}
	if okCount < 5 {
		t.Errorf("only %d/10 random traces supported T(20,3)", okCount)
	}
}

func TestPathLossMonotone(t *testing.T) {
	m := OutdoorModel()
	prev := m.RSS(0.5)
	for _, d := range []float64{1, 2, 5, 10, 50, 100, 300} {
		cur := m.RSS(d)
		if cur > prev {
			t.Errorf("RSS increased with distance at %v m", d)
		}
		prev = cur
	}
	if m.RSS(0.1) != m.RSS(1) {
		t.Error("sub-metre distances must clamp to 1 m")
	}
}
