package traffic_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestTokenTicksNeverInVain runs T(10,2) on the campus trace with TCP Reno
// at 10 Mbps down and 4 Mbps up, as bench's t10x2-tcp does, for 1 s under
// DCF, CENTAUR and DOMINO: every token tick that runs raises the bucket or
// sends a segment, for the clock parks before a tick that could do
// neither.
func TestTokenTicksNeverInVain(t *testing.T) {
	campus, err := topo.BuildT(topo.CampusTrace(1), 10, 2, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { *traffic.TickProbe = nil }()
	for _, s := range []core.Scheme{core.DCF, core.CENTAUR, core.DOMINO} {
		var ticks, vain int
		*traffic.TickProbe = func(raised bool, sent uint64) {
			ticks++
			if !raised && sent == 0 {
				vain++
			}
		}
		if _, err := core.RunScenario(core.Scenario{
			Net: campus, Downlink: true, Uplink: true, Scheme: s, Seed: 1,
			Duration: sim.Second, Warmup: 50 * sim.Millisecond,
			Traffic: core.TCP, DownMbps: 10, UpMbps: 4,
		}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d token ticks", s, ticks)
		if ticks == 0 || vain > 0 {
			t.Errorf("%v: %d of %d token ticks neither raised the bucket nor sent", s, vain, ticks)
		}
	}
}
