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

// sigDBs are correlator thresholds (SigSINRdB) the signature decision is
// checked at: the default, the values the differential medium test uses,
// and a few beyond.
var sigDBs = []float64{-10, -3, 0, 2.5, -30, 4, 21}

// TestDecodableMatchesLogOracle checks the log-free decisions against the
// dB formulas — decodable for data frames, linThreshold.below for the
// signature correlator — at the linear threshold, at ±1…±64 ulps around it
// and around the guard band's edges, at the extremes of the float range,
// and on 1e6 random ratios each, half of them within 1e-8 of the threshold.
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

	// The signature decision: sinr < SigSINRdB, with NaN not below.
	checkSig := func(sir, db float64) {
		t.Helper()
		th := newLinThreshold(db)
		if got, want := th.below(sir), 10*math.Log10(sir) < db; got != want {
			t.Fatalf("SigSINRdB %v S/I %v (%.17g dB): below %v, oracle %v",
				db, sir, 10*math.Log10(sir), got, want)
		}
	}
	var below, above int
	for _, db := range sigDBs {
		th := newLinThreshold(db)
		for _, x := range []float64{math.Pow(10, db/10), th.lo, th.hi} {
			up, down := x, x
			checkSig(x, db)
			for i := 0; i < 64; i++ {
				up = math.Nextafter(up, math.Inf(1))
				down = math.Nextafter(down, 0)
				checkSig(up, db)
				checkSig(down, db)
			}
			if 10*math.Log10(x) < db {
				below++
			} else {
				above++
			}
		}
		for _, x := range []float64{0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()} {
			checkSig(x, db)
		}
	}
	if below == 0 || above == 0 {
		t.Errorf("signature threshold cases all on one side: %d below, %d not", below, above)
	}
	for i := 0; i < 1_000_000; i++ {
		db := sigDBs[rng.Intn(len(sigDBs))]
		var sir float64
		if i%2 == 0 {
			sir = math.Pow(10, (db+80*rng.Float64()-40)/10)
		} else {
			sir = math.Pow(10, db/10) * (1 + 1e-8*(2*rng.Float64()-1))
		}
		checkSig(sir, db)
	}
}
