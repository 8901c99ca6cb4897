package exp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Fig12Result holds the uplink-rate sweep for one transport (UDP or TCP):
// aggregate throughput, mean delay and Jain fairness per scheme per uplink
// rate, with downlink fixed at 10 Mbps (paper Fig 12).
type Fig12Result struct {
	Transport string
	UpMbps    []float64
	Schemes   []core.Scheme
	// Indexed [scheme][rate].
	ThroughputMbps [][]float64
	DelayUs        [][]float64
	Fairness       [][]float64
}

// Fig12 sweeps the uplink offered load on T(10,2). transport is core.UDPCBR
// or core.TCP.
func Fig12(o Options, transport core.TrafficKind) (Fig12Result, error) {
	o = o.withDefaults()
	name := "UDP"
	if transport == core.TCP {
		name = "TCP"
	}
	res := Fig12Result{
		Transport: name,
		UpMbps:    []float64{0, 2, 4, 6, 8, 10},
		Schemes:   []core.Scheme{core.DOMINO, core.CENTAUR, core.DCF},
	}
	// One cell per (scheme, uplink rate) of the sweep grid.
	nr := len(res.UpMbps)
	type point struct{ tput, delayUs, fair float64 }
	points, err := runCells(o, len(res.Schemes)*nr, func(i int) (core.Scenario, error) {
		net, err := t10x2.Build(o.Seed)
		return core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: res.Schemes[i/nr],
			Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: transport, DownMbps: 10, UpMbps: res.UpMbps[i%nr],
		}, err
	}, func(_ int, r core.Result) point {
		return point{r.DataMbps, r.MeanDelayPerLink.Microseconds(), r.Fairness}
	})
	if err != nil {
		return res, err
	}
	for si := range res.Schemes {
		tput, delay, fair := make([]float64, nr), make([]float64, nr), make([]float64, nr)
		for ri, p := range points[si*nr : (si+1)*nr] {
			tput[ri], delay[ri], fair[ri] = p.tput, p.delayUs, p.fair
		}
		res.ThroughputMbps = append(res.ThroughputMbps, tput)
		res.DelayUs = append(res.DelayUs, delay)
		res.Fairness = append(res.Fairness, fair)
	}
	return res, nil
}

// Print renders the three panels of one Fig 12 row.
func (r Fig12Result) Print(w io.Writer) {
	panel := func(title, unit string, data [][]float64, scale float64, prec int) {
		fmt.Fprintf(w, "Fig 12 %s %s (%s) vs uplink rate, T(10,2), downlink 10 Mbps\n",
			r.Transport, title, unit)
		hline(w, 64)
		fmt.Fprintf(w, "%-10s", "uplink")
		for _, u := range r.UpMbps {
			fmt.Fprintf(w, "%9.0f", u)
		}
		fmt.Fprintln(w)
		for i, s := range r.Schemes {
			fmt.Fprintf(w, "%-10s", s)
			for _, v := range data[i] {
				fmt.Fprintf(w, "%9.*f", prec, v*scale)
			}
			fmt.Fprintln(w)
		}
	}
	panel("throughput", "Mbps", r.ThroughputMbps, 1, 2)
	panel("delay", "µs", r.DelayUs, 1, 0)
	panel("fairness", "Jain", r.Fairness, 1, 3)
}

// Fig14Result is the CDF of DOMINO's throughput gain over DCF across random
// T(20,3) topologies.
type Fig14Result struct {
	Gains *stats.CDF
	// Skipped counts random placements on which a T(20,3) could not be
	// selected (reported, not hidden).
	Skipped int
}

// Fig14 runs `o.Runs` random 800×800 m placements (110 nodes, of which the
// T(20,3) selection uses 80), saturated UDP, and collects DOMINO/DCF
// aggregate-throughput ratios (paper Fig 14: gains 1.22–1.96, median 1.58).
func Fig14(o Options) (Fig14Result, error) {
	o = o.withDefaults()
	res := Fig14Result{Gains: &stats.CDF{}}
	// A serial pre-pass finds the feasible placements. Each derives its seed
	// from its run index, so the set does not depend on scheduling.
	var seeds []int64
	for run := 0; run < o.Runs; run++ {
		seed := parallel.Seed(o.Seed, run, parallel.DefaultStride)
		if _, err := randomT20x3.Build(seed); err != nil {
			res.Skipped++
			continue
		}
		seeds = append(seeds, seed)
	}
	// Two cells per placement, DCF then DOMINO, each on its own selection.
	schemes := [2]core.Scheme{core.DCF, core.DOMINO}
	mbps, err := runCells(o, 2*len(seeds), func(i int) (core.Scenario, error) {
		seed := seeds[i/2]
		net, err := randomT20x3.Build(seed)
		if err != nil {
			return core.Scenario{}, fmt.Errorf("exp: Fig14 rebuild diverged at seed %d: %w", seed, err)
		}
		return core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: schemes[i%2],
			Seed: seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: core.UDPCBR, DownMbps: 10, UpMbps: 10,
		}, nil
	}, aggregateMbps)
	if err != nil {
		return res, err
	}
	for p := range seeds {
		if dcfMbps := mbps[2*p]; dcfMbps > 0 {
			res.Gains.Add(mbps[2*p+1] / dcfMbps)
		}
	}
	return res, nil
}

// Print renders the gain CDF.
func (r Fig14Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 14: CDF of DOMINO/DCF throughput gain, random T(20,3)")
	hline(w, 58)
	if r.Gains.N() == 0 {
		fmt.Fprintln(w, "no feasible topologies")
		return
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		fmt.Fprintf(w, "  p%-3.0f gain = %.2fx\n", q*100, r.Gains.Quantile(q))
	}
	if r.Skipped > 0 {
		fmt.Fprintf(w, "  (%d infeasible placements skipped)\n", r.Skipped)
	}
}

// PollingSweepResult: §5 batch-size (polling frequency) trade-off.
type PollingSweepResult struct {
	BatchSizes []int
	// Heavy traffic (5 Mbps/link) and light traffic (0.5 Mbps/link) rows.
	HeavyMbps, HeavyDelayUs []float64
	LightMbps, LightDelayUs []float64
}

// PollingSweep varies DOMINO's batch size under heavy and light UDP load on
// T(10,2) (paper §5 "Polling frequency").
func PollingSweep(o Options) (PollingSweepResult, error) {
	o = o.withDefaults()
	res := PollingSweepResult{BatchSizes: []int{4, 8, 12, 24, 48}}
	// One cell per (batch size, load): even indices heavy, odd light.
	type point struct{ mbps, delayUs float64 }
	points, err := runCells(o, len(res.BatchSizes)*2, func(i int) (core.Scenario, error) {
		rate := 5.0
		if i%2 == 1 {
			rate = 0.5
		}
		net, err := t10x2.Build(o.Seed)
		return core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: core.DOMINO,
			Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: core.UDPCBR, DownMbps: rate, UpMbps: rate,
			TuneDomino: func(c *domino.Config) { c.BatchSize = res.BatchSizes[i/2] },
		}, err
	}, func(_ int, r core.Result) point { return point{r.DataMbps, r.MeanDelay.Microseconds()} })
	if err != nil {
		return res, err
	}
	for i := range res.BatchSizes {
		res.HeavyMbps = append(res.HeavyMbps, points[2*i].mbps)
		res.HeavyDelayUs = append(res.HeavyDelayUs, points[2*i].delayUs)
		res.LightMbps = append(res.LightMbps, points[2*i+1].mbps)
		res.LightDelayUs = append(res.LightDelayUs, points[2*i+1].delayUs)
	}
	return res, nil
}

// Print renders the polling-frequency sweep.
func (r PollingSweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§5: batch size (1/polling frequency) sweep, T(10,2) UDP")
	hline(w, 66)
	fmt.Fprintf(w, "%-22s", "batch size")
	for _, b := range r.BatchSizes {
		fmt.Fprintf(w, "%9d", b)
	}
	fmt.Fprintln(w)
	rows := []struct {
		name string
		vals []float64
		prec int
	}{
		{"heavy tput (Mbps)", r.HeavyMbps, 2},
		{"heavy delay (µs)", r.HeavyDelayUs, 0},
		{"light tput (Mbps)", r.LightMbps, 2},
		{"light delay (µs)", r.LightDelayUs, 0},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-22s", row.name)
		for _, v := range row.vals {
			fmt.Fprintf(w, "%9.*f", row.prec, v)
		}
		fmt.Fprintln(w)
	}
}

// LightLoadResult: §5 light-traffic delay comparison on T(6,5).
type LightLoadResult struct {
	DominoDelay, DCFDelay sim.Time
	Ratio                 float64
	// AdaptiveDelay/AdaptiveRatio use the adaptive batch policy (the
	// "better polling scheme" the paper leaves as future work).
	AdaptiveDelay sim.Time
	AdaptiveRatio float64
}

// LightLoad measures DOMINO's control overhead at web-browsing-like rates
// (48 Kbps per link on T(6,5); paper: delay only 1.14× DCF's).
func LightLoad(o Options) (LightLoadResult, error) {
	o = o.withDefaults()
	// T(6,5) consumes 36 of the trace's 40 nodes, so clients must accept
	// weaker APs than the default association policy; scan seeds for a
	// feasible selection.
	t65 := func(traceSeed int64) (*topo.Network, error) {
		const floorDBm = -76
		return topo.BuildTWithFloor(topo.CampusTrace(traceSeed), 6, 5, floorDBm,
			phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(o.Seed)))
	}
	feasible := int64(-1)
	for probe := int64(0); probe <= 100; probe++ {
		if _, err := t65(o.Seed + probe); err == nil {
			feasible = o.Seed + probe
			break
		}
	}
	if feasible < 0 {
		return LightLoadResult{}, fmt.Errorf("exp: no campus trace within 100 seeds of %d supports T(6,5)", o.Seed)
	}
	const rate = 0.048 // 6 KBps
	scenarios := []core.Scenario{
		{Scheme: core.DOMINO},
		{Scheme: core.DOMINO, TuneDomino: func(c *domino.Config) { c.AdaptiveBatch = true }},
		{Scheme: core.DCF},
	}
	delays, err := runCells(o, len(scenarios), func(i int) (core.Scenario, error) {
		sc := scenarios[i]
		net, err := t65(feasible)
		sc.Net = net
		sc.Downlink, sc.Uplink = true, true
		sc.Seed, sc.Duration, sc.Warmup = o.Seed, o.Duration, o.Warmup
		sc.Traffic, sc.DownMbps, sc.UpMbps = core.UDPCBR, rate, rate
		return sc, err
	}, func(_ int, r core.Result) sim.Time { return r.MeanDelay })
	if err != nil {
		return LightLoadResult{}, err
	}
	dom, adaptive, d := delays[0], delays[1], delays[2]
	res := LightLoadResult{DominoDelay: dom, DCFDelay: d, AdaptiveDelay: adaptive}
	if d > 0 {
		res.Ratio = float64(dom) / float64(d)
		res.AdaptiveRatio = float64(adaptive) / float64(d)
	}
	return res, nil
}

// Print renders the light-load comparison.
func (r LightLoadResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§5: light traffic (T(6,5), 6 KBps per link)")
	hline(w, 48)
	fmt.Fprintf(w, "DOMINO delay: %v\nDCF delay:    %v\nratio:        %.2fx (paper: 1.14x)\n",
		r.DominoDelay, r.DCFDelay, r.Ratio)
	fmt.Fprintf(w, "with adaptive batching: %v (%.2fx)\n", r.AdaptiveDelay, r.AdaptiveRatio)
}
