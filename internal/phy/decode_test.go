package phy

import (
	"math"
	"math/rand"
	"testing"
)

// logDecodable is the dB comparison decodable must agree with, decision
// for decision.
func logDecodable(sir float64, rate Rate) bool {
	return 10*math.Log10(sir) >= SNRThresholdDB(rate)
}

// decodeRates covers every 802.11g rate plus one non-standard rate on each
// side of SNRThresholdDB's default branch (the Log2 arm above 6 Mbps).
var decodeRates = []Rate{Rate6, Rate9, Rate12, Rate18, Rate24, Rate36, Rate48, Rate54, 1, 100}

// TestDecodableMatchesLogOracle checks the log-free decision against the dB
// formula at the linear threshold, at ±1…±64 ulps around it and around the
// guard band's edges, at the extremes of the float range, and on 1e6
// random ratios, half of them within 1e-8 of the threshold.
func TestDecodableMatchesLogOracle(t *testing.T) {
	m := &Medium{}
	check := func(sir float64, rate Rate) {
		t.Helper()
		if got, want := m.decodable(sir, rate), logDecodable(sir, rate); got != want {
			t.Fatalf("rate %v S/I %v (%.17g dB): decodable %v, oracle %v",
				rate, sir, 10*math.Log10(sir), got, want)
		}
	}
	var passes, fails int
	for _, rate := range decodeRates {
		lin := math.Pow(10, SNRThresholdDB(rate)/10)
		th := m.threshold(rate)
		for _, x := range []float64{lin, th.lo, th.hi} {
			up, down := x, x
			check(x, rate)
			for i := 0; i < 64; i++ {
				up = math.Nextafter(up, math.Inf(1))
				down = math.Nextafter(down, 0)
				check(up, rate)
				check(down, rate)
			}
			if logDecodable(x, rate) {
				passes++
			} else {
				fails++
			}
		}
		for _, x := range []float64{0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()} {
			check(x, rate)
		}
	}
	if passes == 0 || fails == 0 {
		t.Errorf("threshold cases all on one side: %d decode, %d fail", passes, fails)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		rate := decodeRates[rng.Intn(len(decodeRates))]
		db := SNRThresholdDB(rate)
		var sir float64
		if i%2 == 0 {
			sir = math.Pow(10, (db+80*rng.Float64()-40)/10)
		} else {
			sir = math.Pow(10, db/10) * (1 + 1e-8*(2*rng.Float64()-1))
		}
		check(sir, rate)
	}
	if len(m.thresholds) != len(decodeRates) {
		t.Errorf("%d cached thresholds for %d rates", len(m.thresholds), len(decodeRates))
	}
}
