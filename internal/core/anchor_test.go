package core

import (
	"math"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/strict"
	"repro/internal/topo"
)

// singleCell is one AP (node 0) with n clients, every pair of radios at
// -50 dBm: one collision domain with no capture, hidden or exposed pairs.
func singleCell(n int) *topo.Network {
	net := &topo.Network{}
	for i := 0; i <= n; i++ {
		row := make([]float64, n+1)
		for j := range row {
			if j != i {
				row[j] = -50
			}
		}
		net.RSS = append(net.RSS, row)
		net.IsAP = append(net.IsAP, i == 0)
		net.APOf = append(net.APOf, 0)
	}
	net.APs = []phy.NodeID{0}
	return net
}

// TestOmniscientMatchesClosedForm pins the omniscient executor to its
// closed form on one collision domain: every uplink conflicts with every
// other through the shared AP, so each slot carries exactly one 512 B
// packet, and the aggregate goodput of n saturated clients is
// 8·512 bits / (DATA + SIFS + ACK + SlotGuard) at 12 Mbps, 9.870 Mbps,
// whatever n is. Only the packets in flight at the two edges of the
// measurement window may differ: one per link.
func TestOmniscientMatchesClosedForm(t *testing.T) {
	const bytes = 512
	slot := phy.Airtime(bytes, phy.Rate12) + phy.SIFS + phy.Airtime(phy.AckBytes, phy.Rate12) + strict.DefaultConfig().SlotGuard
	want := 8 * bytes / slot.Seconds() / 1e6
	const duration, warmup = 2 * sim.Second, 200 * sim.Millisecond
	window := (duration - warmup).Seconds()
	for n := 1; n <= 10; n++ {
		res, err := RunScenario(Scenario{
			Net: singleCell(n), Uplink: true, Scheme: Omniscient, Seed: 1,
			Duration: duration, Warmup: warmup, Traffic: Saturated,
			PacketBytes: bytes, Rate: phy.Rate12,
		})
		if err != nil {
			t.Fatal(err)
		}
		tol := float64(n) * 8 * bytes / window / 1e6
		if math.Abs(res.AggregateMbps-want) > tol {
			t.Errorf("n=%d: aggregate %.4f Mbps, closed form %.4f ± %.4f", n, res.AggregateMbps, want, tol)
		}
	}
}
