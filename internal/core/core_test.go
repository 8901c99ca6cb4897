package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		DCF: "DCF", CENTAUR: "CENTAUR", DOMINO: "DOMINO", Omniscient: "Omniscient",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%q.String() = %q, want %q", string(s), got, w)
		}
	}
}

func TestRunAllSchemesSaturated(t *testing.T) {
	for _, scheme := range []Scheme{DCF, CENTAUR, DOMINO, Omniscient} {
		res := mustRun(t, Scenario{
			Net:      topo.TwoPairs(topo.ExposedTerminals),
			Downlink: true,
			Scheme:   scheme,
			Seed:     1,
			Duration: sim.Second,
			Traffic:  Saturated,
		})
		if res.AggregateMbps < 4 {
			t.Errorf("%v: aggregate %.2f Mbps", scheme, res.AggregateMbps)
		}
		if len(res.PerLinkMbps) != 2 || len(res.Links) != 2 {
			t.Errorf("%v: result shape wrong", scheme)
		}
		if res.Fairness <= 0 || res.Fairness > 1 {
			t.Errorf("%v: fairness %v", scheme, res.Fairness)
		}
	}
}

// mustRun runs the scenario or fails the test.
func mustRun(t *testing.T, s Scenario) Result {
	t.Helper()
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSchemeOrdering pins the headline comparison on the exposed-pair
// topology: DOMINO and the omniscient bound exploit concurrency; DCF and
// CENTAUR-downlink-only differ but both beat nothing. DOMINO must land close
// to omniscient (paper Fig 2).
func TestSchemeOrdering(t *testing.T) {
	run := func(s Scheme) float64 {
		return mustRun(t, Scenario{
			Net:      topo.TwoPairs(topo.ExposedTerminals),
			Downlink: true,
			Scheme:   s,
			Seed:     2,
			Duration: 2 * sim.Second,
			Traffic:  Saturated,
		}).AggregateMbps
	}
	d, c, dom, omni := run(DCF), run(CENTAUR), run(DOMINO), run(Omniscient)
	t.Logf("DCF=%.2f CENTAUR=%.2f DOMINO=%.2f OMNI=%.2f", d, c, dom, omni)
	if dom <= d {
		t.Errorf("DOMINO (%.2f) must beat DCF (%.2f) on exposed links", dom, d)
	}
	if c <= d*0.9 {
		t.Errorf("CENTAUR (%.2f) should not collapse below DCF (%.2f) here", c, d)
	}
	if dom < omni*0.85 {
		t.Errorf("DOMINO (%.2f) should track omniscient (%.2f)", dom, omni)
	}
}

func TestRunUDP(t *testing.T) {
	res := mustRun(t, Scenario{
		Net:      topo.TwoPairs(topo.ExposedTerminals),
		Downlink: true,
		Uplink:   true,
		Scheme:   DOMINO,
		Seed:     3,
		Duration: 2 * sim.Second,
		Warmup:   200 * sim.Millisecond,
		Traffic:  UDPCBR,
		DownMbps: 2,
		UpMbps:   1,
	})
	// Offered 2×2 + 2×1 = 6 Mbps, easily carried.
	if res.AggregateMbps < 5.4 || res.AggregateMbps > 6.4 {
		t.Errorf("UDP aggregate = %.2f, want ≈6", res.AggregateMbps)
	}
	if res.MeanDelay > 50*sim.Millisecond {
		t.Errorf("mean delay %v too high for light load", res.MeanDelay)
	}
}

func TestRunTCP(t *testing.T) {
	res := mustRun(t, Scenario{
		Net:      topo.TwoPairs(topo.ExposedTerminals),
		Downlink: true,
		Uplink:   true,
		Scheme:   DOMINO,
		Seed:     4,
		Duration: 8 * sim.Second,
		Warmup:   500 * sim.Millisecond,
		Traffic:  TCP,
		DownMbps: 4,
	})
	if len(res.TCPFlows) != 2 {
		t.Fatalf("flows = %d, want 2 (one per pair)", len(res.TCPFlows))
	}
	// Data goodput should approach the 2 × 4 Mbps application limit.
	if res.DataMbps < 7 {
		t.Errorf("TCP data goodput = %.2f Mbps, want ≈8", res.DataMbps)
	}
	for i, f := range res.TCPFlows {
		if f.AckedSegments == 0 {
			t.Errorf("flow %d never delivered", i)
		}
	}
}

func TestRunMisalignProbe(t *testing.T) {
	res := mustRun(t, Scenario{
		Net:      topo.Figure7(),
		Downlink: true,
		Uplink:   true,
		Scheme:   DOMINO,
		Seed:     5,
		Duration: sim.Second,
		Traffic:  Saturated,
	})
	if res.Misalign == nil {
		t.Fatal("misalignment probe not armed")
	}
	if res.Misalign.Max(0) == 0 {
		t.Error("no initial misalignment recorded")
	}
}

func TestRunBadScenarioErrors(t *testing.T) {
	corrupt := topo.Figure1()
	corrupt.APOf[1] = 1
	for _, tc := range []struct {
		name string
		s    Scenario
		want string
	}{
		{"corrupt network",
			Scenario{Net: corrupt, Downlink: true, Traffic: Saturated, Duration: sim.Millisecond},
			"invalid network"},
		{"warmup beyond duration",
			Scenario{Net: topo.Figure1(), Downlink: true, Traffic: Saturated,
				Duration: 200 * sim.Millisecond, Warmup: 500 * sim.Millisecond},
			"warmup 500ms exceeds duration 200ms"},
		{"warmup beyond default duration",
			Scenario{Net: topo.Figure1(), Downlink: true, Traffic: Saturated, Warmup: 11 * sim.Second},
			"warmup 11s exceeds duration 10s"},
	} {
		if _, err := RunScenario(tc.s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
