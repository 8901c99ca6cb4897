package domino

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestSignatureLengthConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SignatureCapacity() != 127 {
		t.Errorf("default capacity = %d", cfg.SignatureCapacity())
	}
	// Two codes per signature frame (combined broadcast, then START/ROP).
	if d := cfg.durations().sigFrame; d != 2*sim.Micros(6.35) {
		t.Errorf("default signature frame = %v", d)
	}
	cfg.SignatureChips = 511
	if cfg.SignatureCapacity() != 511 {
		t.Errorf("511-chip capacity = %d", cfg.SignatureCapacity())
	}
	if d := cfg.durations().sigFrame; d != 2*sim.Micros(25.55) {
		t.Errorf("511-chip signature frame = %v", d)
	}
	// Longer signatures stretch the slot.
	short := DefaultConfig()
	long := DefaultConfig()
	long.SignatureChips = 511
	if long.durations().slot <= short.durations().slot {
		t.Error("longer signatures should lengthen the slot")
	}
}

func TestLongSignaturesStillWork(t *testing.T) {
	agg, e := runWith(t, 21, func(c *Config) { c.SignatureChips = 511 })
	if agg < 10 {
		t.Errorf("511-chip run got %.2f Mbps", agg)
	}
	// The overhead relative to 127 chips should be visible but small
	// (2×19.2 µs extra per ~450 µs slot ≈ 8%).
	agg127, _ := runWith(t, 21, nil)
	if agg >= agg127 {
		t.Errorf("longer signatures should cost throughput: 511=%.2f vs 127=%.2f", agg, agg127)
	}
	if agg < agg127*0.85 {
		t.Errorf("511-chip overhead too large: %.2f vs %.2f", agg, agg127)
	}
	_ = e
}

func TestSignatureCapacityPanic(t *testing.T) {
	// 130 nodes exceed the 127-signature capacity.
	n := 130
	rss := make([][]float64, n)
	for i := range rss {
		rss[i] = make([]float64, n)
		for j := range rss[i] {
			if i != j {
				rss[i][j] = -95
			}
		}
	}
	net := &topo.Network{RSS: rss}
	for i := 0; i < n; i += 2 {
		ap := phy.NodeID(i)
		net.IsAP = append(net.IsAP, true, false)
		net.APOf = append(net.APOf, ap, ap)
		net.APs = append(net.APs, ap)
	}
	links := net.BuildLinks(true, false)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(1)
	medium := phy.NewMedium(k, rss, phy.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("capacity overflow did not panic")
		}
	}()
	New(k, medium, g, nil, DefaultConfig())
}
