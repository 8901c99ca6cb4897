package core

import (
	"strings"
	"testing"

	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestRunLinksOverride(t *testing.T) {
	net := topo.Figure1()
	links := topo.Figure1Links(net)
	res := mustRun(t, Scenario{
		Net: net, Links: links, Scheme: DCF, Seed: 1,
		Duration: sim.Second, Traffic: Saturated,
	})
	if len(res.Links) != 3 {
		t.Fatalf("links = %d, want the 3 Fig 1 flows", len(res.Links))
	}
}

func TestRunPhyConfigOverride(t *testing.T) {
	// Raising the noise floor to -70 dBm kills the -60 dBm links' margin at
	// 12 Mbps (SNR 10 < 7+... still decodes) — use -58: SNR ( -60 - -58 )
	// negative: nothing decodes and throughput collapses.
	cfg := phy.DefaultConfig()
	cfg.NoiseDBm = -58
	cfg.DeliverFloorDBm = -58
	res := mustRun(t, Scenario{
		Net: topo.TwoPairs(topo.ExposedTerminals), Downlink: true,
		Scheme: DCF, Seed: 1, Duration: sim.Second, Traffic: Saturated,
		PhyConfig: &cfg,
	})
	if res.AggregateMbps > 0.1 {
		t.Errorf("deaf PHY still delivered %.2f Mbps", res.AggregateMbps)
	}
}

func TestRunRateOverride(t *testing.T) {
	run := func(rate phy.Rate) float64 {
		return mustRun(t, Scenario{
			Net: topo.TwoPairs(topo.ExposedTerminals), Downlink: true,
			Scheme: Omniscient, Seed: 1, Duration: sim.Second,
			Traffic: Saturated, Rate: rate,
		}).AggregateMbps
	}
	if r6, r24 := run(phy.Rate6), run(phy.Rate24); r24 < r6*1.5 {
		t.Errorf("24 Mbps (%f) should far outrun 6 Mbps (%f)", r24, r6)
	}
}

func TestRunDefaultDuration(t *testing.T) {
	res := mustRun(t, Scenario{
		Net: topo.TwoPairs(topo.ExposedTerminals), Downlink: true,
		Scheme: Omniscient, Seed: 1, Traffic: Saturated,
	})
	// Default duration is 10 s; a saturated exposed pair delivers plenty.
	if res.AggregateMbps < 15 {
		t.Errorf("default-duration run delivered %.2f Mbps", res.AggregateMbps)
	}
}

func TestRunUnknownSchemeErrors(t *testing.T) {
	for _, s := range []Scheme{"", "no-such-scheme"} {
		_, err := RunScenario(Scenario{
			Net: topo.TwoPairs(topo.ExposedTerminals), Downlink: true,
			Scheme: s, Duration: sim.Millisecond, Traffic: Saturated,
		})
		if err == nil {
			t.Errorf("scheme %q: no error", string(s))
			continue
		}
		for _, name := range scheme.Registry.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("scheme %q: error %q does not list registered scheme %s", string(s), err, name)
			}
		}
	}
}
