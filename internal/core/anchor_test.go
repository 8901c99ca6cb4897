package core

import (
	"math"
	"testing"

	"repro/internal/dcf"
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

// bianchiMbps is Bianchi's saturation throughput (IEEE JSAC 2000) of n
// stations sending bytes-long packets under basic access, with minimum
// window w and m backoff stages: the collision probability p solves
// p = 1 − (1 − τ(p))^(n−1) with τ(p) = 2 / (w + 1 + p·w·Σ_{k<m} (2p)^k),
// and the channel alternates idle slots of length slot, successes of
// length success and collisions of length collision.
func bianchiMbps(n, w, m, bytes int, slot, success, collision sim.Time) float64 {
	tau := func(p float64) float64 {
		sum, term := 0.0, 1.0
		for k := 0; k < m; k++ {
			sum += term
			term *= 2 * p
		}
		return 2 / (float64(w+1) + p*float64(w)*sum)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		p := (lo + hi) / 2
		if p < 1-math.Pow(1-tau(p), float64(n-1)) {
			lo = p
		} else {
			hi = p
		}
	}
	t := tau((lo + hi) / 2)
	ptr := 1 - math.Pow(1-t, float64(n))
	ps := float64(n) * t * math.Pow(1-t, float64(n-1)) / ptr
	mean := (1-ptr)*slot.Seconds() + ptr*ps*success.Seconds() + ptr*(1-ps)*collision.Seconds()
	return ps * ptr * 8 * float64(bytes) / mean / 1e6
}

// TestDCFMatchesBianchi pins DCF to Bianchi's saturation model on one
// collision domain: n = 1, 2, 5, 10 and 20 saturated uplinks, 512 B at
// 12 Mbps, W = CWMin + 1 = 16 and m = 6 stages (CWMax + 1 = 16·2^6), with
// the engine's slot, DIFS, SIFS and ACK air time. A success occupies
// DATA + SIFS + ACK + DIFS; a collision occupies DATA, the ACK timeout
// (SIFS + ACK + 2 slots) and DIFS. Over seeds 1–5 at 20 s the simulated ÷
// model ratio reads 0.9994–1.0004 at n = 1, 0.985–0.988 at 2, 1.014–1.015
// at 5, 1.029–1.033 at 10 and 1.038–1.042 at 20. The band below is that
// range widened by one point, capped at ±5%. Two differences from the
// model remain: a bystander of a collision resumes one DIFS after the
// frame (the engine has no EIFS) while the model holds every station for
// the ACK timeout, and the engine drops a packet after mac.RetryLimit
// retries where the model retries forever.
func TestDCFMatchesBianchi(t *testing.T) {
	const bytes = 512
	const lo, hi = 0.975, 1.05
	cfg := dcf.DefaultConfig()
	data, ack := phy.Airtime(bytes, cfg.Rate), phy.Airtime(phy.AckBytes, cfg.AckRate)
	success := data + cfg.SIFS + ack + cfg.DIFS
	collision := data + cfg.SIFS + ack + 2*cfg.SlotTime + cfg.DIFS
	const duration, warmup = 20 * sim.Second, 500 * sim.Millisecond
	for _, n := range []int{1, 2, 5, 10, 20} {
		want := bianchiMbps(n, cfg.CWMin+1, 6, bytes, cfg.SlotTime, success, collision)
		res, err := RunScenario(Scenario{
			Net: singleCell(n), Uplink: true, Scheme: DCF, Seed: 1,
			Duration: duration, Warmup: warmup, Traffic: Saturated,
			PacketBytes: bytes, Rate: phy.Rate12,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := res.AggregateMbps / want; r < lo || r > hi {
			t.Errorf("n=%d: aggregate %.4f Mbps, Bianchi %.4f: ratio %.4f outside [%v, %v]", n, res.AggregateMbps, want, r, lo, hi)
		}
	}
}
