package repro

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates (a scaled-down version of) its experiment per iteration and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// re-derives the numbers EXPERIMENTS.md records. The cmd/experiments binary
// runs the same drivers at full paper scale.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/exp"
	"repro/internal/gold"
	"repro/internal/ofdm"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topo"
)

// benchOpts shrinks runs so a full -bench=. pass stays in laptop territory.
func benchOpts(seed int64) exp.Options {
	return exp.Options{
		Seed:     seed,
		Duration: 2 * sim.Second,
		Warmup:   300 * sim.Millisecond,
		Runs:     4,
		Trials:   100,
	}
}

// mustT10x2 builds the default campus topology or aborts the benchmark.
func mustT10x2(tb testing.TB, seed int64) *topo.Network {
	tb.Helper()
	net, err := exp.T10x2(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// BenchmarkFig2 regenerates the motivating comparison (Fig 2) and reports
// the omniscient-over-DCF and DOMINO-over-DCF throughput ratios (paper: 1.76x
// and close-to-omniscient).
func BenchmarkFig2(b *testing.B) {
	var omniGain, dominoGain float64
	for i := 0; i < b.N; i++ {
		r := exp.Fig2(benchOpts(int64(i + 1)))
		omniGain = r.Overall[core.Omniscient] / r.Overall[core.DCF]
		dominoGain = r.Overall[core.DOMINO] / r.Overall[core.DCF]
	}
	b.ReportMetric(omniGain, "omni/dcf")
	b.ReportMetric(dominoGain, "domino/dcf")
}

// BenchmarkTable1 regenerates the ROP symbol parameters (Table 1) — a pure
// construction benchmark reporting the symbol duration.
func BenchmarkTable1(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		l := ofdm.DefaultLayout()
		if err := l.Validate(); err != nil {
			b.Fatal(err)
		}
		us = l.SymbolDurationUs()
	}
	b.ReportMetric(us, "symbol-µs")
}

// BenchmarkFig5 regenerates the three received-spectrum snapshots.
func BenchmarkFig5(b *testing.B) {
	ok := 0.0
	for i := 0; i < b.N; i++ {
		r := exp.Fig5(int64(i + 1))
		if r.StrongGuarded.OK[1] {
			ok = 1
		}
	}
	b.ReportMetric(ok, "guarded-decodes")
}

// BenchmarkFig6 regenerates the guard-subcarrier sweep and reports the
// 3-guard decode ratio at the 38 dB worst case (paper: ~1.0).
func BenchmarkFig6(b *testing.B) {
	var at38 float64
	for i := 0; i < b.N; i++ {
		r := exp.Fig6(benchOpts(int64(i + 1)))
		for j, d := range r.DiffsDB {
			if d == 38 {
				at38 = r.Ratio[3][j]
			}
		}
	}
	b.ReportMetric(at38, "ratio@38dB")
}

// BenchmarkSNRFloor regenerates the §3.1 SNR experiment, reporting the decode
// ratio at 4 dB (paper: reliable).
func BenchmarkSNRFloor(b *testing.B) {
	var at4 float64
	for i := 0; i < b.N; i++ {
		r := exp.SNRFloor(benchOpts(int64(i + 1)))
		for j, s := range r.SNRdB {
			if s == 4 {
				at4 = r.Ratio[j]
			}
		}
	}
	b.ReportMetric(at4, "ratio@4dB")
}

// BenchmarkFig9 regenerates the signature-detection experiment, reporting
// detection at 4 combined signatures (paper: ~100%) and the worst in-envelope
// false-positive rate (paper: <1%).
func BenchmarkFig9(b *testing.B) {
	var det4, fp float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig9(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		det4 = r.Detected[0][3] // 1-sender setup, combined = 4
		fp = r.MaxFP
	}
	b.ReportMetric(det4, "detect@4")
	b.ReportMetric(fp*100, "falsepos-%")
}

// BenchmarkFig10 regenerates the microscope timeline (engine event trace).
func BenchmarkFig10(b *testing.B) {
	var events float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(int64(i + 1))
		o.Duration = 300 * sim.Millisecond
		events = float64(len(exp.Fig10(o, 1000)))
	}
	b.ReportMetric(events, "events")
}

// BenchmarkTable2 regenerates the USRP prototype comparison, reporting the
// hidden-terminal gain (paper: >3x).
func BenchmarkTable2(b *testing.B) {
	var htGain float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(int64(i + 1))
		o.Duration = sim.Second // scaled ×10 inside for the slow USRP PHY
		r := exp.Table2(o)
		htGain = r.Domino[1] / r.DCF[1]
	}
	b.ReportMetric(htGain, "HT-gain")
}

// BenchmarkFig11 regenerates the misalignment convergence, reporting the
// worst slot-5 residual in µs across jitter settings (paper: 1-2 µs).
func BenchmarkFig11(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(int64(i + 1))
		o.Duration = sim.Second
		r, err := exp.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.MaxUs {
			if v := row[len(row)-1]; v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "slot5-µs")
}

// BenchmarkFig12UDP regenerates the UDP sweep, reporting DOMINO's gain over
// DCF at zero uplink (paper: 1.74x) and the fairness gap at full uplink.
func BenchmarkFig12UDP(b *testing.B) {
	var gain0, fairGap float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig12(benchOpts(int64(i+1)), core.UDPCBR)
		if err != nil {
			b.Fatal(err)
		}
		gain0 = r.ThroughputMbps[0][0] / r.ThroughputMbps[2][0]
		last := len(r.UpMbps) - 1
		fairGap = r.Fairness[0][last] - r.Fairness[2][last]
	}
	b.ReportMetric(gain0, "gain@up0")
	b.ReportMetric(fairGap, "fairness-gap")
}

// BenchmarkFig12TCP regenerates the TCP sweep, reporting DOMINO's
// throughput gain over DCF at zero uplink (paper: 1.10-1.15x).
func BenchmarkFig12TCP(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(int64(i + 1))
		o.Duration = 4 * sim.Second // TCP needs window growth time
		r, err := exp.Fig12(o, core.TCP)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.ThroughputMbps[0][0] / r.ThroughputMbps[2][0]
	}
	b.ReportMetric(gain, "gain@up0")
}

// BenchmarkTable3 regenerates the Fig 13 topologies, reporting CENTAUR's
// collapse ratio on 13(b) vs 13(a) (paper: 18.35/28.60 = 0.64) and DOMINO's
// stability (paper: 33.85/32.72 = 1.03).
func BenchmarkTable3(b *testing.B) {
	var centaurDrop, dominoHold float64
	for i := 0; i < b.N; i++ {
		r := exp.Table3(benchOpts(int64(i + 1)))
		centaurDrop = r.Mbps[1][1] / r.Mbps[0][1]
		dominoHold = r.Mbps[1][0] / r.Mbps[0][0]
	}
	b.ReportMetric(centaurDrop, "centaur-13b/13a")
	b.ReportMetric(dominoHold, "domino-13b/13a")
}

// BenchmarkFig14 regenerates the random-topology gain CDF, reporting the
// median DOMINO/DCF gain (paper: 1.58x, range 1.22-1.96).
func BenchmarkFig14(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(int64(i + 1))
		o.Runs = 3
		r, err := exp.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		if r.Gains.N() > 0 {
			median = r.Gains.Quantile(0.5)
		}
	}
	b.ReportMetric(median, "median-gain")
}

// BenchmarkPollingSweep regenerates the §5 batch-size trade-off, reporting
// the light-traffic delay growth from the smallest to the largest batch.
func BenchmarkPollingSweep(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(int64(i + 1))
		o.Duration = 1500 * sim.Millisecond
		r, err := exp.PollingSweep(o)
		if err != nil {
			b.Fatal(err)
		}
		if r.LightDelayUs[0] > 0 {
			growth = r.LightDelayUs[len(r.LightDelayUs)-1] / r.LightDelayUs[0]
		}
	}
	b.ReportMetric(growth, "light-delay-growth")
}

// BenchmarkLightLoad regenerates the §5 light-traffic delay comparison,
// reporting the DOMINO/DCF delay ratio (paper: 1.14x; this model pays more
// because batches gate light arrivals — see EXPERIMENTS.md).
func BenchmarkLightLoad(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := exp.LightLoad(benchOpts(1))
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "delay-ratio")
}

// --- Parallel harness benches: serial vs all-cores on the fan-out drivers ---

// BenchmarkFig14Workers runs the Fig 14 Monte Carlo serially and across all
// cores. The results are bit-identical (per-run derived seeds, ordered CDF
// merge; pinned by TestFig14Deterministic); only the wall clock should differ.
func BenchmarkFig14Workers(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "allcores"
		}
		b.Run(name, func(b *testing.B) {
			var median float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(1)
				o.Runs = 4
				o.Workers = workers
				r, err := exp.Fig14(o)
				if err != nil {
					b.Fatal(err)
				}
				if r.Gains.N() > 0 {
					median = r.Gains.Quantile(0.5)
				}
			}
			b.ReportMetric(median, "median-gain")
		})
	}
}

// BenchmarkFig9Workers runs the chip-level detection grid serially and
// across all cores.
func BenchmarkFig9Workers(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "allcores"
		}
		b.Run(name, func(b *testing.B) {
			var det4 float64
			for i := 0; i < b.N; i++ {
				o := benchOpts(1)
				o.Workers = workers
				r, err := exp.Fig9(o)
				if err != nil {
					b.Fatal(err)
				}
				det4 = r.Detected[0][3]
			}
			b.ReportMetric(det4, "detect@4")
		})
	}
}

// BenchmarkDetectionCurveWorkers shards the detection-curve Monte Carlo
// (the table phy.DefaultDetector encodes) serially and across all cores.
func BenchmarkDetectionCurveWorkers(b *testing.B) {
	set, err := gold.NewSet(7)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "allcores"
		}
		b.Run(name, func(b *testing.B) {
			var at4 float64
			for i := 0; i < b.N; i++ {
				curve := gold.MeasureDetectionCurve(set, 7, 200, 10, int64(i+1), workers)
				at4 = curve[4]
			}
			b.ReportMetric(at4, "detect@4")
		})
	}
}

// BenchmarkShardWorkers runs the grid campus (12 buildings × 20 APs × 2
// clients, 50 ms simulated) through the sharded runner at 1, 2, 4 and 8
// workers and reports simulated seconds per wall second. The merged output is
// identical at every worker count (TestShardCountDeterminism), so only the
// wall clock differs. Swept over GOMAXPROCS it is the cores-vs-throughput
// curve:
//
//	go test -run '^$' -bench ShardWorkers -cpu 1,2,4,8 .
func BenchmarkShardWorkers(b *testing.B) {
	const dur = 50 * sim.Millisecond
	net := topo.GridCampus(1, 12, 20, 2)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := shard.Run(core.Scenario{
					Net: net, Downlink: true, Uplink: true,
					Scheme: core.DOMINO, Seed: 1,
					Duration: dur, Warmup: dur / 10,
				}, shard.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*dur.Seconds()/b.Elapsed().Seconds(), "sim-s/s")
		})
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationSignatureLength compares Gold-set generation plus one
// detection round across the signature lengths §5 discusses (127/511).
func BenchmarkAblationSignatureLength(b *testing.B) {
	for _, m := range []int{7, 9} {
		m := m
		b.Run(map[int]string{7: "len127", 9: "len511"}[m], func(b *testing.B) {
			set, err := gold.NewSet(m)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var det float64
			for i := 0; i < b.N; i++ {
				r := gold.DetectionTrial(set, gold.Setup{Senders: 2, Mode: gold.DifferentSignatures},
					4, 20, 10, rng)
				det = r.Detected
			}
			b.ReportMetric(det, "detect@4")
			b.ReportMetric(float64(set.Count()), "codes")
		})
	}
}

// BenchmarkAblationTriggerRedundancy measures DOMINO throughput on the
// T(10,2) campus network with inbound trigger redundancy 1 vs 2 (the paper
// picks 2: backups matter once triggers can fail).
func BenchmarkAblationTriggerRedundancy(b *testing.B) {
	for _, inbound := range []int{1, 2} {
		inbound := inbound
		b.Run(map[int]string{1: "inbound1", 2: "inbound2"}[inbound], func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.Scenario{
					Net:      mustT10x2(b, 1),
					Downlink: true, Uplink: true,
					Scheme: core.DOMINO, Traffic: core.Saturated,
					Duration: sim.Second, Seed: int64(i + 1),
					TuneDomino: func(c *domino.Config) { c.MaxInbound = inbound },
				})
				agg = r.AggregateMbps
			}
			b.ReportMetric(agg, "Mbps")
		})
	}
}

// BenchmarkAblationFakeCover measures the fake-link insertion's contribution
// (paper §3.3: the maximal cover keeps the whole network triggerable).
func BenchmarkAblationFakeCover(b *testing.B) {
	for _, off := range []bool{false, true} {
		off := off
		name := "cover-on"
		if off {
			name = "cover-off"
		}
		b.Run(name, func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.Scenario{
					Net:      mustT10x2(b, 1),
					Downlink: true, Uplink: true,
					Scheme: core.DOMINO, Traffic: core.Saturated,
					Duration: sim.Second, Seed: int64(i + 1),
					TuneDomino: func(c *domino.Config) { c.NoFakeCover = off },
				})
				agg = r.AggregateMbps
			}
			b.ReportMetric(agg, "Mbps")
		})
	}
}

// BenchmarkAblationBatchSize sweeps the scheduling batch size at saturation
// (bigger batches amortise ROP overhead; §5).
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{8, 24, 48} {
		batch := batch
		b.Run(map[int]string{8: "batch8", 24: "batch24", 48: "batch48"}[batch], func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.Scenario{
					Net:      mustT10x2(b, 1),
					Downlink: true, Uplink: true,
					Scheme: core.DOMINO, Traffic: core.Saturated,
					Duration: sim.Second, Seed: int64(i + 1),
					TuneDomino: func(c *domino.Config) { c.BatchSize = batch },
				})
				agg = r.AggregateMbps
			}
			b.ReportMetric(agg, "Mbps")
		})
	}
}

// BenchmarkAblationScheduler compares the RAND scheduler against
// longest-queue-first under saturation on T(10,2): the converter is
// scheduler-agnostic (paper contribution 1), so both run unmodified.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, name := range []string{"rand", "lqf"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.Scenario{
					Net:      mustT10x2(b, 1),
					Downlink: true, Uplink: true,
					Scheme: core.DOMINO, Traffic: core.Saturated,
					Duration: sim.Second, Seed: int64(i + 1),
					TuneDomino: func(c *domino.Config) { c.Scheduler = name },
				})
				agg = r.AggregateMbps
			}
			b.ReportMetric(agg, "Mbps")
		})
	}
}

// BenchmarkCoexist regenerates the §5 CFP/CoP sweep, reporting the external
// pair's share with a 5 ms contention period.
func BenchmarkCoexist(b *testing.B) {
	var ext float64
	for i := 0; i < b.N; i++ {
		r := exp.Coexist(benchOpts(int64(i + 1)))
		for j, c := range r.CoPMs {
			if c == 5 {
				ext = r.ExternalMbps[j]
			}
		}
	}
	b.ReportMetric(ext, "ext-Mbps@5ms")
}

// BenchmarkScale measures simulator performance across network sizes: one
// simulated second of saturated DOMINO, reporting delivered packets.
func BenchmarkScale(b *testing.B) {
	cases := []struct {
		name string
		net  func() *topo.Network
	}{
		{"2pairs", func() *topo.Network { return topo.TwoPairs(topo.ExposedTerminals) }},
		{"fig7", topo.Figure7},
		{"T10x2", func() *topo.Network { return mustT10x2(b, 1) }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				r := core.Run(core.Scenario{
					Net: c.net(), Downlink: true, Uplink: true,
					Scheme: core.DOMINO, Traffic: core.Saturated,
					Duration: sim.Second, Seed: int64(i + 1),
				})
				agg = r.AggregateMbps
			}
			b.ReportMetric(agg, "Mbps")
		})
	}
}
