package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Paper reference values the model.paper_err_pct metric is measured against:
// Fig 14's median DOMINO/DCF gain and §5's light-load delay ratio. They come
// from the paper's own simulations; the model is never compared to hardware.
const (
	paperFig14Gain  = 1.58
	paperLightRatio = 1.14
)

// scale shrinks every workload for the smoke test.
type scale struct {
	// div divides each run's simulated duration and warmup.
	div sim.Time
	// gridBuildings and gridAPs size the grid-campus topology.
	gridBuildings, gridAPs int
}

var (
	fullScale  = scale{div: 1, gridBuildings: 25, gridAPs: 20}
	smokeScale = scale{div: 50, gridBuildings: 4, gridAPs: 5}
)

// run is one simulation of a workload: a topology builder plus the scenario
// it feeds. shards > 0 runs it through the sharded engine on that many
// workers; otherwise it runs on one core.Instance.
type run struct {
	label  string
	build  func() (*topo.Network, error)
	sc     core.Scenario
	shards int
}

// workload is a fixed list of runs executed back to back, with no arrival
// process, plus the model outputs derived from their results.
type workload struct {
	name string
	runs []run
	// infeasible counts placements skipped while choosing the inputs
	// (fig14-udp only).
	infeasible int
	// model derives the model.* metrics from the runs' results, in run order.
	model func(res []core.Result) modelOut
}

// modelOut holds a workload's simulated headline numbers; zero marks an
// output the workload does not have.
type modelOut struct {
	dominoMbps, dominoGain, delayRatio, paperErrPct float64
}

// procs returns the number of goroutines the workload simulates on.
func (w *workload) procs() int {
	n := 1
	for _, r := range w.runs {
		n = max(n, r.shards)
	}
	return n
}

// simTime returns the simulated seconds one pass over the workload covers.
func (w *workload) simTime() float64 {
	var s float64
	for _, r := range w.runs {
		s += r.sc.Duration.Seconds()
	}
	return s
}

// newWorkload derives a workload's inputs from seed. Only topologies and
// scenarios reach the simulator; the seed itself never does, except as the
// scenarios' kernel seeds.
func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	switch name {
	case "fig14-udp":
		return fig14UDP(seed, sc)
	case "fig7-mac":
		return fig7MAC(seed, sc), nil
	case "t10x2-tcp":
		return t10x2TCP(seed, sc)
	case "t65-light":
		return t65Light(seed, sc)
	case "grid-campus":
		return gridCampus(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fig14UDP takes the first six feasible random T(20,3) placements, so every
// seed does the same amount of work, and runs DCF then DOMINO on each. Six
// shorter runs rather than three longer ones average over more placements:
// over 20 seeds the spread of peak RSS fell from 7.0% to 5.9%. Some seeds
// reject most placements (seeds 0-300 need up to 35 attempts for six
// feasible ones), hence the generous attempt limit.
func fig14UDP(seed int64, sc scale) (*workload, error) {
	const placements, attempts = 6, 100
	w := &workload{name: "fig14-udp"}
	for i := 0; i < attempts && len(w.runs) < 2*placements; i++ {
		ps := parallel.Seed(seed, i, parallel.DefaultStride)
		build := func() (*topo.Network, error) {
			return topo.BuildT(topo.RandomTrace(ps, 110, 800), 20, 3, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(ps)))
		}
		if _, err := build(); err != nil {
			w.infeasible++
			continue
		}
		for _, s := range []core.Scheme{core.DCF, core.DOMINO} {
			w.runs = append(w.runs, run{
				label: fmt.Sprintf("%v/p%d", s, i),
				build: build,
				sc: core.Scenario{
					Downlink: true, Uplink: true, Scheme: s, Seed: ps,
					Duration: 1000 * sim.Millisecond / sc.div, Warmup: 250 * sim.Millisecond / sc.div,
					Traffic: core.UDPCBR, DownMbps: 10, UpMbps: 10,
				},
			})
		}
	}
	if len(w.runs) < 2*placements {
		return nil, fmt.Errorf("fig14-udp: only %d of %d placements feasible in %d attempts", len(w.runs)/2, placements, attempts)
	}
	w.model = func(res []core.Result) modelOut {
		var gains, dom []float64
		for i := 0; i+1 < len(res); i += 2 {
			gains = append(gains, ratio(res[i+1].AggregateMbps, res[i].AggregateMbps))
			dom = append(dom, res[i+1].AggregateMbps)
		}
		g := median(gains)
		return modelOut{dominoMbps: mean(dom), dominoGain: g, paperErrPct: errPct(g, paperFig14Gain)}
	}
	return w, nil
}

// fig7MAC runs the four schemes saturated on the fixed Fig 7 network.
func fig7MAC(seed int64, sc scale) *workload {
	w := &workload{name: "fig7-mac"}
	for _, s := range []core.Scheme{core.DCF, core.CENTAUR, core.DOMINO, core.Omniscient} {
		w.runs = append(w.runs, run{
			label: s.String(),
			build: func() (*topo.Network, error) { return topo.Figure7(), nil },
			sc: core.Scenario{
				Downlink: true, Uplink: true, Scheme: s, Seed: seed,
				Duration: 60 * sim.Second / sc.div, Warmup: 300 * sim.Millisecond / sc.div,
				Traffic: core.Saturated,
			},
		})
	}
	w.model = func(res []core.Result) modelOut {
		d := res[2].AggregateMbps
		return modelOut{dominoMbps: d, dominoGain: ratio(d, res[0].AggregateMbps)}
	}
	return w
}

// campusTrace is the campus trace t10x2-tcp and t65-light select from. The
// paper draws both from one measured trace, so the trace is fixed and the
// workload seed drives only the simulation's own randomness (backoff,
// wired jitter, traffic phases); a seed-drawn trace would also change the
// workload's size from seed to seed.
const campusTrace = 1

// t10x2TCP runs TCP Reno (10 Mbps down, 4 Mbps up) on the paper's default
// T(10,2) campus selection.
func t10x2TCP(seed int64, sc scale) (*workload, error) {
	build := func() (*topo.Network, error) {
		return topo.BuildT(topo.CampusTrace(campusTrace), 10, 2, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(campusTrace)))
	}
	if _, err := build(); err != nil {
		return nil, fmt.Errorf("t10x2-tcp: %w", err)
	}
	w := &workload{name: "t10x2-tcp"}
	for _, s := range []core.Scheme{core.DOMINO, core.CENTAUR, core.DCF} {
		w.runs = append(w.runs, run{
			label: s.String(),
			build: build,
			sc: core.Scenario{
				Downlink: true, Uplink: true, Scheme: s, Seed: seed,
				Duration: 10 * sim.Second / sc.div, Warmup: 500 * sim.Millisecond / sc.div,
				Traffic: core.TCP, DownMbps: 10, UpMbps: 4,
			},
		})
	}
	w.model = func(res []core.Result) modelOut {
		return modelOut{dominoMbps: res[0].DataMbps, dominoGain: ratio(res[0].DataMbps, res[2].DataMbps)}
	}
	return w, nil
}

// t65Light runs web-browsing-like load (48 kbps per link) on T(6,5): DOMINO
// with fixed batches, DOMINO with adaptive batches, and DCF.
func t65Light(seed int64, sc scale) (*workload, error) {
	// T(6,5) consumes 36 of the trace's 40 nodes, so clients must accept
	// weaker APs than the default association policy, and the trace is the
	// first feasible one from campusTrace on (as in exp.LightLoad).
	const floor = -76
	build := func(ts int64) func() (*topo.Network, error) {
		return func() (*topo.Network, error) {
			return topo.BuildTWithFloor(topo.CampusTrace(ts), 6, 5, floor, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(campusTrace)))
		}
	}
	ts := int64(campusTrace)
	for ; ts <= campusTrace+100; ts++ {
		if _, err := build(ts)(); err == nil {
			break
		}
	}
	if ts > campusTrace+100 {
		return nil, fmt.Errorf("t65-light: no campus trace within 100 of %d supports T(6,5)", campusTrace)
	}
	w := &workload{name: "t65-light"}
	for _, v := range []struct {
		label    string
		s        core.Scheme
		adaptive bool
	}{{"DOMINO", core.DOMINO, false}, {"DOMINO-adaptive", core.DOMINO, true}, {"DCF", core.DCF, false}} {
		s := core.Scenario{
			Downlink: true, Uplink: true, Scheme: v.s, Seed: seed,
			Duration: 20 * sim.Second / sc.div, Warmup: 500 * sim.Millisecond / sc.div,
			Traffic: core.UDPCBR, DownMbps: 0.048, UpMbps: 0.048,
		}
		if v.adaptive {
			s.TuneDomino = func(c *domino.Config) { c.AdaptiveBatch = true }
		}
		w.runs = append(w.runs, run{label: v.label, build: build(ts), sc: s})
	}
	w.model = func(res []core.Result) modelOut {
		r := ratio(float64(res[0].MeanDelay), float64(res[2].MeanDelay))
		return modelOut{
			dominoMbps:  mean([]float64{res[0].AggregateMbps, res[1].AggregateMbps}),
			delayRatio:  r,
			paperErrPct: errPct(r, paperLightRatio),
		}
	}
	return w, nil
}

// gridCampusWorkers is the shard worker count of grid-campus: the host's two
// cores, and the only workload that uses more than one goroutine.
const gridCampusWorkers = 2

// gridCampusLayout fixes the campus: the workload seed drives only the
// simulation's randomness, as for the campus-trace workloads. Layouts
// differ in how buildings couple into interference domains, which moved the
// workload's host time by up to ±8% from seed to seed, and some (seed 17's)
// couple three buildings into one domain, more nodes than DOMINO's 127
// signatures can name.
const gridCampusLayout = 1

// gridCampus runs DOMINO saturated on a multi-building campus through the
// sharded engine.
func gridCampus(seed int64, sc scale) *workload {
	return &workload{
		name: "grid-campus",
		runs: []run{{
			label: "DOMINO",
			build: func() (*topo.Network, error) {
				return topo.GridCampus(gridCampusLayout, sc.gridBuildings, sc.gridAPs, 2), nil
			},
			sc: core.Scenario{
				Downlink: true, Uplink: true, Scheme: core.DOMINO, Seed: seed,
				Duration: 300 * sim.Millisecond / sc.div, Warmup: 100 * sim.Millisecond / sc.div,
				Traffic: core.Saturated,
			},
			shards: gridCampusWorkers,
		}},
		model: func(res []core.Result) modelOut { return modelOut{dominoMbps: res[0].AggregateMbps} },
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func errPct(measured, paper float64) float64 {
	d := measured - paper
	if d < 0 {
		d = -d
	}
	return 100 * d / paper
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first quartile, median and third quartile of v by
// the default ("exclusive") method of Python's statistics.quantiles(v, n=4);
// fewer than two values return v[0] for all three.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
