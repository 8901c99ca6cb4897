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
	if s := c.Link(0); s.DeliveredPkts != 10 || s.DeliveredB != 5120 {
		t.Errorf("link0 stats = %+v", s)
	}
}

func TestCollectorWarmup(t *testing.T) {
	l := &topo.Link{ID: 0}
	c := NewCollector(1, sim.Second)
	c.Delivered(pkt(l, 512, 0), 500*sim.Millisecond) // during warm-up
	c.Dropped(pkt(l, 512, 0), 700*sim.Millisecond)
	if c.Link(0).DeliveredPkts != 0 || c.Link(0).DroppedPkts != 0 {
		t.Fatal("warm-up traffic counted")
	}
	c.Delivered(pkt(l, 512, sim.Second), 2*sim.Second)
	c.Dropped(pkt(l, 512, 0), 2*sim.Second)
	if c.Link(0).DeliveredPkts != 1 || c.Link(0).DroppedPkts != 1 {
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

// TestCDFMergeMatchesSerial is the reduction contract of the parallel
// harness: adding samples shard by shard and merging in shard order must
// yield exactly the serial accumulation.
func TestCDFMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	var serial CDF
	for _, v := range samples {
		serial.Add(v)
	}
	// Uneven shards, one empty.
	bounds := []int{0, 137, 137, 500, 731, 1000}
	var merged CDF
	for i := 1; i < len(bounds); i++ {
		var shard CDF
		for _, v := range samples[bounds[i-1]:bounds[i]] {
			shard.Add(v)
		}
		merged.Merge(&shard)
	}
	merged.Merge(nil) // no-op
	if merged.N() != serial.N() {
		t.Fatalf("N = %d, want %d", merged.N(), serial.N())
	}
	mx, mf := merged.Points()
	sx, sf := serial.Points()
	for i := range mx {
		if mx[i] != sx[i] || mf[i] != sf[i] {
			t.Fatalf("point %d: (%v,%v) vs serial (%v,%v)", i, mx[i], mf[i], sx[i], sf[i])
		}
	}
	for q := 0.0; q <= 1.0; q += 0.1 {
		if merged.Quantile(q) != serial.Quantile(q) {
			t.Fatalf("quantile %.1f differs", q)
		}
	}
}

func TestCollectorMerge(t *testing.T) {
	l0, l1 := &topo.Link{ID: 0}, &topo.Link{ID: 1}
	serial := NewCollector(2, 0)
	a, b := NewCollector(2, 0), NewCollector(2, 0)
	for i := 0; i < 10; i++ {
		p := pkt(l0, 512, sim.Time(i)*sim.Millisecond)
		now := sim.Time(i)*sim.Millisecond + 5*sim.Millisecond
		serial.Delivered(p, now)
		if i%2 == 0 {
			a.Delivered(p, now)
		} else {
			b.Delivered(p, now)
		}
	}
	serial.Dropped(pkt(l1, 512, 0), sim.Millisecond)
	b.Dropped(pkt(l1, 512, 0), sim.Millisecond)
	a.Merge(b)
	for id := 0; id < 2; id++ {
		if a.Link(id) != serial.Link(id) {
			t.Errorf("link %d: merged %+v vs serial %+v", id, a.Link(id), serial.Link(id))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched link counts must panic")
		}
	}()
	a.Merge(NewCollector(3, 0))
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
	if m.Slots() != 5 {
		t.Fatalf("slots = %d", m.Slots())
	}
	m.Observe(0, 100*sim.Microsecond)
	m.Observe(0, 124*sim.Microsecond)
	m.Observe(0, 110*sim.Microsecond)
	if got := m.Max(0); got != 24*sim.Microsecond {
		t.Errorf("slot0 misalignment = %v", got)
	}
	m.Observe(1, 50*sim.Microsecond)
	if got := m.Max(1); got != 0 {
		t.Errorf("single-transmitter slot = %v", got)
	}
	if m.Max(2) != 0 || m.Max(-1) != 0 || m.Max(99) != 0 {
		t.Error("empty/out-of-range slots must be 0")
	}
	m.Observe(-3, 0)
	m.Observe(99, 0) // must not panic
}
