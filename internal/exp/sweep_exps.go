package exp

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/obs"
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
	// One task per (scheme, uplink-rate) cell of the sweep grid.
	nr := len(res.UpMbps)
	runs := parallel.Map(o.Workers, len(res.Schemes)*nr, func(i int) errCell[core.Result] {
		net, err := T10x2(o.Seed)
		if err != nil {
			return errCell[core.Result]{err: err}
		}
		r, err := core.RunScenario(core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: res.Schemes[i/nr],
			Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: transport, DownMbps: 10, UpMbps: res.UpMbps[i%nr],
		})
		return errCell[core.Result]{v: r, err: err}
	})
	if err := firstErr(runs); err != nil {
		return res, err
	}
	for si := range res.Schemes {
		tput := make([]float64, nr)
		delay := make([]float64, nr)
		fair := make([]float64, nr)
		for ri := 0; ri < nr; ri++ {
			r := runs[si*nr+ri].v
			tput[ri] = r.DataMbps
			delay[ri] = r.MeanDelayPerLink.Microseconds()
			fair[ri] = r.Fairness
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
	type outcome struct {
		gains   *stats.CDF
		skipped bool
		err     error
	}
	// Tracing uses two shards per run (DCF then DOMINO), concatenated in run
	// order below, so the stream is identical at any worker count.
	var sharded *obs.Sharded
	if o.TraceSink != nil {
		sharded = obs.NewSharded(2 * o.Runs)
	}
	// Each placement derives its own seed from the run index (the scheme the
	// serial loop always used), so the set of outcomes is independent of
	// scheduling; the per-run CDF shards are then merged in run order below.
	outcomes := parallel.Map(o.Workers, o.Runs, func(run int) outcome {
		seed := parallel.Seed(o.Seed, run, parallel.DefaultStride)
		tr := topo.RandomTrace(seed, 110, 800)
		rng := rand.New(rand.NewSource(seed))
		net, err := topo.BuildT(tr, 20, 3, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			return outcome{skipped: true}
		}
		dcfNet, err := rebuild(tr, seed)
		if err != nil {
			return outcome{err: err}
		}
		dcfRes, err := core.RunScenario(core.Scenario{
			Net: dcfNet, Downlink: true, Uplink: true, Scheme: core.DCF,
			Seed: seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: core.UDPCBR, DownMbps: 10, UpMbps: 10,
			Tracer: shardTracer(sharded, 2*run),
		})
		if err != nil {
			return outcome{err: err}
		}
		domRes, err := core.RunScenario(core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: core.DOMINO,
			Seed: seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: core.UDPCBR, DownMbps: 10, UpMbps: 10,
			Tracer: shardTracer(sharded, 2*run+1),
		})
		if err != nil {
			return outcome{err: err}
		}
		out := outcome{gains: &stats.CDF{}}
		if dcfRes.AggregateMbps > 0 {
			out.gains.Add(domRes.AggregateMbps / dcfRes.AggregateMbps)
		}
		return out
	})
	for _, out := range outcomes {
		if out.err != nil {
			return res, out.err
		}
		if out.skipped {
			res.Skipped++
			continue
		}
		res.Gains.Merge(out.gains)
	}
	if sharded != nil {
		if _, err := sharded.WriteTo(o.TraceSink); err != nil {
			fmt.Fprintf(os.Stderr, "exp: Fig14 trace write: %v\n", err)
		}
	}
	return res, nil
}

// rebuild reselects the same T(20,3) (same seed) for the second engine: each
// engine registers listeners on its own medium, but Network values are
// cheap. The first BuildT on the same trace and seed already succeeded, so
// an error here is a determinism bug worth surfacing, not hiding.
func rebuild(tr *topo.Trace, seed int64) (*topo.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := topo.BuildT(tr, 20, 3, phy.DefaultConfig(), phy.Rate12, rng)
	if err != nil {
		return nil, fmt.Errorf("exp: Fig14 rebuild diverged at seed %d: %w", seed, err)
	}
	return net, nil
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
	// One task per (batch size, load) cell: even indices heavy, odd light.
	type point struct{ mbps, delayUs float64 }
	points := parallel.Map(o.Workers, len(res.BatchSizes)*2, func(i int) errCell[point] {
		rate := 5.0
		if i%2 == 1 {
			rate = 0.5
		}
		net, err := T10x2(o.Seed)
		if err != nil {
			return errCell[point]{err: err}
		}
		r, err := core.RunScenario(core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: core.DOMINO,
			Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic: core.UDPCBR, DownMbps: rate, UpMbps: rate,
			TuneDomino: func(c *domino.Config) { c.BatchSize = res.BatchSizes[i/2] },
		})
		return errCell[point]{v: point{r.DataMbps, r.MeanDelay.Microseconds()}, err: err}
	})
	if err := firstErr(points); err != nil {
		return res, err
	}
	for i := range res.BatchSizes {
		res.HeavyMbps = append(res.HeavyMbps, points[2*i].v.mbps)
		res.HeavyDelayUs = append(res.HeavyDelayUs, points[2*i].v.delayUs)
		res.LightMbps = append(res.LightMbps, points[2*i+1].v.mbps)
		res.LightDelayUs = append(res.LightDelayUs, points[2*i+1].v.delayUs)
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
	const t65Floor = -76
	feasible := int64(-1)
	for probe := int64(0); probe <= 100; probe++ {
		tr := topo.CampusTrace(o.Seed + probe)
		rng := rand.New(rand.NewSource(o.Seed))
		if _, err := topo.BuildTWithFloor(tr, 6, 5, t65Floor, phy.DefaultConfig(), phy.Rate12, rng); err == nil {
			feasible = o.Seed + probe
			break
		}
	}
	if feasible < 0 {
		return LightLoadResult{}, fmt.Errorf("exp: no campus trace within 100 seeds of %d supports T(6,5)", o.Seed)
	}
	build := func() (*topo.Network, error) {
		tr := topo.CampusTrace(feasible)
		rng := rand.New(rand.NewSource(o.Seed))
		return topo.BuildTWithFloor(tr, 6, 5, t65Floor, phy.DefaultConfig(), phy.Rate12, rng)
	}
	const rate = 0.048 // 6 KBps
	scenarios := []core.Scenario{
		{Scheme: core.DOMINO},
		{Scheme: core.DOMINO, TuneDomino: func(c *domino.Config) { c.AdaptiveBatch = true }},
		{Scheme: core.DCF},
	}
	runs := parallel.Map(o.Workers, len(scenarios), func(i int) errCell[core.Result] {
		sc := scenarios[i]
		net, err := build()
		if err != nil {
			return errCell[core.Result]{err: err}
		}
		sc.Net = net
		sc.Downlink, sc.Uplink = true, true
		sc.Seed, sc.Duration, sc.Warmup = o.Seed, o.Duration, o.Warmup
		sc.Traffic, sc.DownMbps, sc.UpMbps = core.UDPCBR, rate, rate
		r, err := core.RunScenario(sc)
		return errCell[core.Result]{v: r, err: err}
	})
	if err := firstErr(runs); err != nil {
		return LightLoadResult{}, err
	}
	dom, adaptive, d := runs[0].v, runs[1].v, runs[2].v
	res := LightLoadResult{
		DominoDelay:   dom.MeanDelay,
		DCFDelay:      d.MeanDelay,
		AdaptiveDelay: adaptive.MeanDelay,
	}
	if d.MeanDelay > 0 {
		res.Ratio = float64(dom.MeanDelay) / float64(d.MeanDelay)
		res.AdaptiveRatio = float64(adaptive.MeanDelay) / float64(d.MeanDelay)
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
