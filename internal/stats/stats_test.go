package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
)

func pkt(link *topo.Link, bytes int, enq sim.Time) *mac.Packet {
	return &mac.Packet{Link: int32(link.ID), Bytes: int32(bytes), Enqueued: enq}
}

func TestCollectorThroughputAndDelay(t *testing.T) {
	l0 := &topo.Link{ID: 0}
	l1 := &topo.Link{ID: 1}
	c := NewCollector(2, 0)
	// 10 packets of 512 B on link 0 over 1 s.
	for i := 0; i < 10; i++ {
		c.Delivered(pkt(l0, 512, sim.Time(i)*100*sim.Millisecond), sim.Time(i)*100*sim.Millisecond+5*sim.Millisecond)
	}
	c.Delivered(pkt(l1, 1024, 0), 10*sim.Millisecond)
	end := sim.Second
	want := float64(10*512*8) / 1e6
	if got := c.ThroughputMbps(0, end); math.Abs(got-want) > 1e-9 {
		t.Errorf("link0 throughput = %v, want %v", got, want)
	}
	if got := c.AggregateMbps(end); math.Abs(got-(want+1024*8/1e6)) > 1e-9 {
		t.Errorf("aggregate = %v", got)
	}
	// Delay: link0 packets each took 5 ms, link1 took 10 ms.
	wantDelay := (10*5*sim.Millisecond + 10*sim.Millisecond) / 11
	if got := c.MeanDelay(); got != wantDelay {
		t.Errorf("mean delay = %v, want %v", got, wantDelay)
	}
	if s := c.links[0]; s.DeliveredPkts != 10 || s.DeliveredB != 5120 {
		t.Errorf("link0 stats = %+v", s)
	}
}

func TestCollectorWarmup(t *testing.T) {
	l := &topo.Link{ID: 0}
	c := NewCollector(1, sim.Second)
	c.Delivered(pkt(l, 512, 0), 500*sim.Millisecond) // during warm-up
	c.Dropped(pkt(l, 512, 0), 700*sim.Millisecond)
	if c.links[0].DeliveredPkts != 0 || c.links[0].DroppedPkts != 0 {
		t.Fatal("warm-up traffic counted")
	}
	c.Delivered(pkt(l, 512, sim.Second), 2*sim.Second)
	c.Dropped(pkt(l, 512, 0), 2*sim.Second)
	if c.links[0].DeliveredPkts != 1 || c.links[0].DroppedPkts != 1 {
		t.Fatal("post-warm-up traffic not counted")
	}
	// Throughput window starts at warm-up end.
	if got := c.ThroughputMbps(0, 2*sim.Second); math.Abs(got-512*8/1e6) > 1e-9 {
		t.Errorf("throughput = %v", got)
	}
	if got := c.ThroughputMbps(0, sim.Second); got != 0 {
		t.Errorf("zero-window throughput = %v", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocation = %v", got)
	}
	// One user hogging: 1/n.
	if got := JainIndex([]float64{5, 0, 0, 0, 0}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("single hog = %v", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate cases should be 0")
	}
	// Scale invariance + bounds, property-based.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			scaled[i] = float64(v) * 7.5
		}
		a, b := JainIndex(xs), JainIndex(scaled)
		if math.Abs(a-b) > 1e-9 {
			return false
		}
		return a >= 0 && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for _, v := range []float64{5, 1, 3, 2, 4} {
		c.Add(v)
	}
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.Quantile(0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := c.Quantile(0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	xs, fs := c.Points()
	if !sort.Float64sAreSorted(xs) {
		t.Error("points not sorted")
	}
	if fs[len(fs)-1] != 1 {
		t.Errorf("last F = %v", fs[len(fs)-1])
	}
	if fs[0] != 0.2 {
		t.Errorf("first F = %v", fs[0])
	}
}

// TestCollectorMerge folds a collector with its own link ids into one with
// different ids, as a sharded run folds each domain's collector into the
// campus-wide one: every mapped link must hold exactly the serial tallies.
func TestCollectorMerge(t *testing.T) {
	// Local link 0 is global link 2 and local link 1 is global link 0;
	// global link 1 belongs to no shard here, so it stays empty.
	mapped := []int{2, 0}
	l0, l1 := &topo.Link{ID: 0}, &topo.Link{ID: 1}
	g0, g1 := &topo.Link{ID: mapped[0]}, &topo.Link{ID: mapped[1]}
	serial := NewCollector(3, 0)
	a, b := NewCollector(3, 0), NewCollector(2, 0)
	for i := 0; i < 10; i++ {
		enq := sim.Time(i) * sim.Millisecond
		now := enq + 5*sim.Millisecond
		serial.Delivered(pkt(g0, 512, enq), now)
		if i%2 == 0 {
			a.Delivered(pkt(g0, 512, enq), now)
		} else {
			b.Delivered(pkt(l0, 512, enq), now)
		}
	}
	serial.Dropped(pkt(g1, 512, 0), sim.Millisecond)
	b.Dropped(pkt(l1, 512, 0), sim.Millisecond)
	a.MergeMapped(b, func(local int) int { return mapped[local] })
	for id := 0; id < 3; id++ {
		if a.links[id] != serial.links[id] {
			t.Errorf("link %d: merged %+v vs serial %+v", id, a.links[id], serial.links[id])
		}
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var c CDF
		for _, v := range raw {
			c.Add(float64(v))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("quantile of empty CDF did not panic")
		}
	}()
	var c CDF
	c.Quantile(0.5)
}

func TestMisalignment(t *testing.T) {
	m := NewMisalignment(5)
	if m.numSlots != 5 {
		t.Fatalf("slots = %d", m.numSlots)
	}
	m.ObserveGroup(0, 100*sim.Microsecond, 0)
	m.ObserveGroup(0, 124*sim.Microsecond, 0)
	m.ObserveGroup(0, 110*sim.Microsecond, 0)
	if got := m.Max(0); got != 24*sim.Microsecond {
		t.Errorf("slot0 misalignment = %v", got)
	}
	m.ObserveGroup(1, 50*sim.Microsecond, 0)
	if got := m.Max(1); got != 0 {
		t.Errorf("single-transmitter slot = %v", got)
	}
	if m.Max(2) != 0 || m.Max(-1) != 0 || m.Max(99) != 0 {
		t.Error("empty/out-of-range slots must be 0")
	}
	m.ObserveGroup(-3, 0, 0)
	m.ObserveGroup(99, 0, 0) // must not panic
}
