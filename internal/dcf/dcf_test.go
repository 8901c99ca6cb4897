package dcf

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// rig builds a complete DCF instance over a network with saturated traffic on
// the given links.
type rig struct {
	k      *sim.Kernel
	medium *phy.Medium
	engine *Engine
	coll   *stats.Collector
}

func newRig(t *testing.T, net *topo.Network, links []*topo.Link, seed int64) *rig {
	t.Helper()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	k := sim.New(seed)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	engine := New(k, medium, links, hub, DefaultConfig())
	coll := stats.NewCollector(len(links), 0)
	hub.Add(coll)
	for _, l := range links {
		s := traffic.NewSaturated(k, engine, l, 512, 8)
		hub.Add(s)
		s.Start()
	}
	engine.Start()
	return &rig{k: k, medium: medium, engine: engine, coll: coll}
}

func (r *rig) run(d sim.Time) { r.k.RunUntil(d) }

func singleLinkNet() (*topo.Network, []*topo.Link) {
	n := topo.TwoPairs(topo.ExposedTerminals)
	links := n.BuildLinks(true, false)
	return n, links[:1]
}

func TestSingleLinkSaturatedThroughput(t *testing.T) {
	net, links := singleLinkNet()
	r := newRig(t, net, links, 1)
	r.run(2 * sim.Second)
	got := r.coll.ThroughputMbps(0, 2*sim.Second)
	// Theoretical DCF saturation for one flow at 12 Mbps, 512 B:
	// DIFS 28 + E[backoff] 67.5 + data 364 + SIFS 10 + ACK 32 ≈ 501.5 µs
	// per packet -> ≈ 8.2 Mbps.
	if got < 7.5 || got > 8.7 {
		t.Errorf("single-link throughput = %.2f Mbps, want ≈8.2", got)
	}
	if r.engine.AckTimeouts > 0 {
		t.Errorf("clean channel had %d ACK timeouts", r.engine.AckTimeouts)
	}
}

func TestTwoContendersShareFairly(t *testing.T) {
	net := topo.TwoPairs(topo.SameContention)
	links := net.BuildLinks(true, false)
	r := newRig(t, net, links, 2)
	r.run(4 * sim.Second)
	a := r.coll.ThroughputMbps(0, 4*sim.Second)
	b := r.coll.ThroughputMbps(1, 4*sim.Second)
	total := a + b
	// Two stations keep the channel busier than one (the winner's backoff
	// is the min of two draws) while CW 15 keeps collisions rare, so the
	// aggregate slightly exceeds the single-station 8.2 Mbps.
	if total < 6.5 || total > 9.2 {
		t.Errorf("aggregate = %.2f Mbps, want ≈8-9 (one contention domain)", total)
	}
	if f := stats.JainIndex([]float64{a, b}); f < 0.95 {
		t.Errorf("fairness = %.3f between equal contenders (a=%.2f b=%.2f)", f, a, b)
	}
}

func TestHiddenTerminalsCollapse(t *testing.T) {
	net := topo.TwoPairs(topo.HiddenTerminals)
	links := net.BuildLinks(true, false)
	r := newRig(t, net, links, 3)
	r.run(2 * sim.Second)
	total := r.coll.AggregateMbps(2 * sim.Second)
	// Hidden senders collide whenever their 364 µs frames overlap; doubled
	// contention windows thin the attempts out, so throughput degrades
	// substantially but does not vanish.
	if total > 6.5 {
		t.Errorf("hidden pair total = %.2f Mbps; collisions should degrade it", total)
	}
	if r.engine.AckTimeouts < 100 {
		t.Errorf("hidden terminals produced only %d ACK timeouts", r.engine.AckTimeouts)
	}
	if r.engine.Drops == 0 {
		t.Error("retry limit never hit despite persistent collisions")
	}
}

func TestExposedTerminalsSerialise(t *testing.T) {
	net := topo.TwoPairs(topo.ExposedTerminals)
	links := net.BuildLinks(true, false)
	r := newRig(t, net, links, 4)
	r.run(4 * sim.Second)
	a := r.coll.ThroughputMbps(0, 4*sim.Second)
	b := r.coll.ThroughputMbps(1, 4*sim.Second)
	// The links could run concurrently (16+ Mbps), but DCF carrier sensing
	// serialises them onto one channel's worth of capacity.
	if total := a + b; total > 10 {
		t.Errorf("exposed pair total = %.2f Mbps; DCF should serialise to ≈8", total)
	}
	if a < 2 || b < 2 {
		t.Errorf("starved exposed link: a=%.2f b=%.2f", a, b)
	}
}

// TestFigure1Starvation reproduces the DCF bars of paper Fig 2: the hidden
// sender AP3 starves while AP1 thrives, and C2 (exposed to AP1) shares.
func TestFigure1Starvation(t *testing.T) {
	net := topo.Figure1()
	links := topo.Figure1Links(net)
	r := newRig(t, net, links, 5)
	r.run(4 * sim.Second)
	ap1 := r.coll.ThroughputMbps(0, 4*sim.Second)
	c2 := r.coll.ThroughputMbps(1, 4*sim.Second)
	ap3 := r.coll.ThroughputMbps(2, 4*sim.Second)
	if ap3 > ap1/3 {
		t.Errorf("hidden AP3 not starved: ap1=%.2f ap3=%.2f", ap1, ap3)
	}
	if c2 < 1 {
		t.Errorf("exposed C2 starved: %.2f Mbps", c2)
	}
	t.Logf("Fig1 DCF: AP1→C1 %.2f, C2→AP2 %.2f, AP3→C3 %.2f Mbps", ap1, c2, ap3)
}

func TestQueueOverflowDrops(t *testing.T) {
	net, links := singleLinkNet()
	k := sim.New(7)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	cfg := DefaultConfig()
	cfg.QueueCap = 4
	engine := New(k, medium, links, hub, cfg)
	var dropped int
	hub.Add(eventsFunc{onDrop: func(*mac.Packet) { dropped++ }})
	engine.Start()
	for i := 0; i < 10; i++ {
		engine.Enqueue(&mac.Packet{Link: links[0], Bytes: 512})
	}
	if engine.QueueLen(0) > 4 {
		t.Errorf("queue holds %d > cap 4", engine.QueueLen(0))
	}
	// One packet is in service; 4 queued; the rest dropped.
	if dropped != 5 {
		t.Errorf("dropped %d, want 5", dropped)
	}
}

type eventsFunc struct {
	onDeliver func(*mac.Packet)
	onDrop    func(*mac.Packet)
}

func (e eventsFunc) Delivered(p *mac.Packet, _ sim.Time) {
	if e.onDeliver != nil {
		e.onDeliver(p)
	}
}
func (e eventsFunc) Dropped(p *mac.Packet, _ sim.Time) {
	if e.onDrop != nil {
		e.onDrop(p)
	}
}

// TestSendFixedOnIdleChannel pins a scheduled send on a clean channel: a
// held link's packets never start contention on their own; a handed-over
// one fires exactly DIFS + slots after the hand-over, rides the given span
// and runs done once; a second send while one is in flight, or one from an
// empty queue, is refused.
func TestSendFixedOnIdleChannel(t *testing.T) {
	net, links := singleLinkNet()
	k := sim.New(1)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	var deliveredAt []sim.Time
	var delivered []*mac.Packet
	hub := &mac.Hub{}
	hub.Add(eventsFunc{onDeliver: func(p *mac.Packet) {
		deliveredAt = append(deliveredAt, k.Now())
		delivered = append(delivered, p)
	}})
	cfg := DefaultConfig()
	e := New(k, medium, links, hub, cfg)
	e.Hold(links[0])
	e.Start()
	e.Enqueue(&mac.Packet{Link: links[0], Bytes: 512})
	k.RunUntil(10 * sim.Millisecond)
	if len(delivered) != 0 || e.QueueLen(0) != 1 {
		t.Fatalf("held link sent on its own: %d delivered, %d queued", len(delivered), e.QueueLen(0))
	}
	start, dones := k.Now(), 0
	if !e.SendFixed(links[0], 4, 77, func() { dones++ }) {
		t.Fatal("SendFixed refused an idle station with a queued packet")
	}
	e.Enqueue(&mac.Packet{Link: links[0], Bytes: 512})
	if e.SendFixed(links[0], 4, 78, nil) {
		t.Error("SendFixed accepted a second send while one is in flight")
	}
	k.RunUntil(20 * sim.Millisecond)
	want := start + cfg.DIFS + 4*cfg.SlotTime + phy.Airtime(512, cfg.Rate) + cfg.SIFS + phy.Airtime(phy.AckBytes, cfg.AckRate)
	if len(delivered) != 1 || deliveredAt[0] != want {
		t.Fatalf("delivered %d packets at %v, want 1 at %v", len(delivered), deliveredAt, want)
	}
	if delivered[0].TxSpan != 77 || dones != 1 {
		t.Errorf("TxSpan %d, done ran %d times; want span 77 and one done", delivered[0].TxSpan, dones)
	}
	if e.QueueLen(0) != 1 {
		t.Errorf("second packet left the held queue: %d queued", e.QueueLen(0))
	}
	e.SendFixed(links[0], 0, 0, nil)
	k.RunUntil(30 * sim.Millisecond)
	if e.SendFixed(links[0], 4, 0, nil) {
		t.Error("SendFixed accepted an empty queue")
	}
}

// TestSendFixedRetriesInLockstep: two hidden senders handed fixed sends at
// the same instant collide on every attempt, because a fixed send re-arms
// the same count after an ACK timeout instead of drawing from a widened CW;
// both reach the retry limit, and each done runs once, on the drop.
func TestSendFixedRetriesInLockstep(t *testing.T) {
	net := topo.TwoPairs(topo.HiddenTerminals)
	links := net.BuildLinks(true, false)
	k := sim.New(2)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	var delivered, dropped int
	hub := &mac.Hub{}
	hub.Add(eventsFunc{onDeliver: func(*mac.Packet) { delivered++ }, onDrop: func(*mac.Packet) { dropped++ }})
	e := New(k, medium, links, hub, DefaultConfig())
	dones := 0
	for _, l := range links {
		e.Hold(l)
		e.Enqueue(&mac.Packet{Link: l, Bytes: 512})
	}
	for _, l := range links {
		if !e.SendFixed(l, 4, 0, func() { dones++ }) {
			t.Fatal("SendFixed refused an idle station")
		}
	}
	k.RunUntil(100 * sim.Millisecond)
	if delivered != 0 || dropped != 2 || dones != 2 {
		t.Errorf("delivered %d, dropped %d, done ran %d times; want 0, 2, 2", delivered, dropped, dones)
	}
	if want := 2 * (mac.RetryLimit + 1); e.AckTimeouts != want {
		t.Errorf("%d ACK timeouts, want %d (every attempt collides)", e.AckTimeouts, want)
	}
}

func TestUDPLightLoadLowDelay(t *testing.T) {
	net, links := singleLinkNet()
	k := sim.New(8)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	hub := &mac.Hub{}
	engine := New(k, medium, links, hub, DefaultConfig())
	coll := stats.NewCollector(1, 0)
	hub.Add(coll)
	traffic.NewUDP(k, engine, links[0], 1.0, 512).Start()
	engine.Start()
	k.RunUntil(2 * sim.Second)
	tput := coll.ThroughputMbps(0, 2*sim.Second)
	if tput < 0.9 || tput > 1.1 {
		t.Errorf("light-load throughput = %.2f, want ≈1.0", tput)
	}
	if d := coll.MeanDelay(); d > 2*sim.Millisecond {
		t.Errorf("light-load delay = %v, want sub-millisecond-ish", d)
	}
}

func TestRetryCountsAndDeterminism(t *testing.T) {
	run := func(seed int64) (float64, int) {
		net := topo.TwoPairs(topo.HiddenTerminals)
		links := net.BuildLinks(true, false)
		r := newRig(nil2(t), net, links, seed)
		r.run(sim.Second)
		return r.coll.AggregateMbps(sim.Second), r.engine.AckTimeouts
	}
	a1, t1 := run(42)
	a2, t2 := run(42)
	if a1 != a2 || t1 != t2 {
		t.Errorf("same seed diverged: (%v,%d) vs (%v,%d)", a1, t1, a2, t2)
	}
	a3, _ := run(43)
	if a1 == a3 {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// nil2 lets newRig be reused inside closures that capture t.
func nil2(t *testing.T) *testing.T { return t }

func BenchmarkDCFSecondOfAir(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := topo.TwoPairs(topo.SameContention)
		links := net.BuildLinks(true, false)
		k := sim.New(int64(i))
		medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
		hub := &mac.Hub{}
		engine := New(k, medium, links, hub, DefaultConfig())
		for _, l := range links {
			s := traffic.NewSaturated(k, engine, l, 512, 8)
			hub.Add(s)
			s.Start()
		}
		engine.Start()
		k.RunUntil(sim.Second)
	}
}
