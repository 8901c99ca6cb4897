package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/dcf"
	"repro/internal/domino"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fig2Result is the motivating comparison on the Fig 1 network.
type Fig2Result struct {
	Schemes   []core.Scheme
	LinkNames []string
	// PerLink[scheme][link] in Mbps; Overall[scheme] aggregates.
	PerLink map[core.Scheme][]float64
	Overall map[core.Scheme]float64
}

// Fig2 runs all four schemes on the Fig 1 network with the three saturated
// flows (AP1→C1, C2→AP2, AP3→C3).
func Fig2(o Options) (Fig2Result, error) {
	o = o.withDefaults()
	res := Fig2Result{
		Schemes:   []core.Scheme{core.DCF, core.CENTAUR, core.DOMINO, core.Omniscient},
		LinkNames: []string{"AP1→C1", "C2→AP2", "AP3→C3"},
		PerLink:   map[core.Scheme][]float64{},
		Overall:   map[core.Scheme]float64{},
	}
	// Each cell keeps only its throughputs, not its engines.
	runs, err := runCells(o, len(res.Schemes), func(i int) (core.Scenario, error) {
		net := topo.Figure1()
		return core.Scenario{
			Net: net, Links: topo.Figure1Links(net), Scheme: res.Schemes[i], Seed: o.Seed,
			Duration: o.Duration, Warmup: o.Warmup, Traffic: core.Saturated,
		}, nil
	}, func(_ int, r core.Result) core.Result {
		return core.Result{PerLinkMbps: r.PerLinkMbps, AggregateMbps: r.AggregateMbps}
	})
	if err != nil {
		return res, err
	}
	for i, s := range res.Schemes {
		res.PerLink[s] = runs[i].PerLinkMbps
		res.Overall[s] = runs[i].AggregateMbps
	}
	return res, nil
}

// Print renders the Fig 2 bars as a table.
func (r Fig2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 2: throughput (Mbps) on the Fig 1 network")
	hline(w, 58)
	fmt.Fprintf(w, "%-12s", "scheme")
	for _, n := range r.LinkNames {
		fmt.Fprintf(w, "%9s", n)
	}
	fmt.Fprintf(w, "%9s\n", "overall")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, "%-12s", s)
		for _, v := range r.PerLink[s] {
			fmt.Fprintf(w, "%9.2f", v)
		}
		fmt.Fprintf(w, "%9.2f\n", r.Overall[s])
	}
}

// Table2Result: the USRP prototype comparison (aggregate throughput in the
// three placements).
type Table2Result struct {
	Scenarios []topo.TwoPairScenario
	// Mbps[scheme][scenario].
	Domino []float64
	DCF    []float64
}

// Table2 reproduces the USRP prototype experiment: two AP-client pairs in
// same-contention, hidden and exposed placements, DOMINO vs DCF. The USRP
// PHY is modelled by inflating per-frame processing time (GNURadio host
// latency) and slowing the contention slots; absolute rates are therefore
// arbitrary — the ratios carry the result.
func Table2(o Options) (Table2Result, error) {
	o = o.withDefaults()
	// USRP-like parameters: ~25 ms of host latency around every frame and
	// ~1 ms effective slots. Rates come out in the tens of Kbps as in the
	// paper.
	const hostLatency = 25 * sim.Millisecond
	res := Table2Result{
		Scenarios: []topo.TwoPairScenario{topo.SameContention, topo.HiddenTerminals, topo.ExposedTerminals},
	}
	// One cell per (placement, scheme): DCF at even indices, DOMINO at odd.
	mbps, err := runCells(o, len(res.Scenarios)*2, func(i int) (core.Scenario, error) {
		sc := core.Scenario{
			Net: topo.TwoPairs(res.Scenarios[i/2]), Downlink: true, Scheme: core.DCF,
			Seed: o.Seed, Duration: o.Duration * 10, Warmup: o.Warmup, Traffic: core.Saturated,
		}
		if i%2 == 0 {
			sc.TuneDCF = func(c *dcf.Config) {
				c.ExtraFrameTime = hostLatency
				c.SlotTime = sim.Millisecond
				c.SIFS = 2 * sim.Millisecond
				c.DIFS = 4 * sim.Millisecond
			}
		} else {
			sc.Scheme = core.DOMINO
			sc.TuneDomino = func(c *domino.Config) { c.ExtraFrameTime = hostLatency }
		}
		return sc, nil
	}, aggregateMbps)
	if err != nil {
		return res, err
	}
	for i := range res.Scenarios {
		res.DCF = append(res.DCF, mbps[2*i])
		res.Domino = append(res.Domino, mbps[2*i+1])
	}
	return res, nil
}

// Print renders Table 2 (Kbps, as in the paper).
func (r Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 2: aggregate throughput (Kbps), USRP-grade PHY")
	hline(w, 46)
	fmt.Fprintf(w, "%-10s", "scheme")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%9s", sc)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "DOMINO")
	for _, v := range r.Domino {
		fmt.Fprintf(w, "%9.2f", v*1000)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "DCF")
	for _, v := range r.DCF {
		fmt.Fprintf(w, "%9.2f", v*1000)
	}
	fmt.Fprintln(w)
	for i := range r.Scenarios {
		if r.DCF[i] > 0 {
			fmt.Fprintf(w, "%v gain: %.2fx  ", r.Scenarios[i], r.Domino[i]/r.DCF[i])
		}
	}
	fmt.Fprintln(w)
}

// Table3Result: aggregate throughput on the Fig 13 exposed-link topologies.
type Table3Result struct {
	// Mbps[topology][scheme]: topologies {13a, 13b}, schemes
	// {DOMINO, CENTAUR, DCF}.
	Mbps [2][3]float64
}

// Table3 reproduces Table 3: CENTAUR collapses below DCF on Fig 13(b) while
// DOMINO is unaffected.
func Table3(o Options) (Table3Result, error) {
	o = o.withDefaults()
	var res Table3Result
	builders := []func() *topo.Network{topo.Figure13a, topo.Figure13b}
	schemes := []core.Scheme{core.DOMINO, core.CENTAUR, core.DCF}
	mbps, err := runCells(o, len(builders)*len(schemes), func(i int) (core.Scenario, error) {
		return core.Scenario{
			Net: builders[i/len(schemes)](), Downlink: true, Scheme: schemes[i%len(schemes)],
			Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup, Traffic: core.Saturated,
		}, nil
	}, aggregateMbps)
	if err != nil {
		return res, err
	}
	for ti := range builders {
		for si := range schemes {
			res.Mbps[ti][si] = mbps[ti*len(schemes)+si]
		}
	}
	return res, nil
}

// Print renders Table 3.
func (r Table3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 3: aggregate throughput (Mbps), 4 exposed-link topologies")
	hline(w, 56)
	fmt.Fprintf(w, "%-14s%10s%10s%10s\n", "topology", "DOMINO", "CENTAUR", "DCF")
	names := []string{"Fig 13(a)", "Fig 13(b)"}
	for ti, row := range r.Mbps {
		fmt.Fprintf(w, "%-14s%10.2f%10.2f%10.2f\n", names[ti], row[0], row[1], row[2])
	}
}

// Fig11Result: maximum transmission misalignment per slot index, per wired
// jitter setting.
type Fig11Result struct {
	StdsUs []float64
	Slots  []int
	// MaxUs[stdIdx][slotIdx] in µs.
	MaxUs [][]float64
}

// Fig11 varies the wired latency variance and records how the initial
// misalignment converges within a few slots (paper Fig 11, on T(10,2)).
func Fig11(o Options) (Fig11Result, error) {
	o = o.withDefaults()
	res := Fig11Result{StdsUs: []float64{20, 40, 60, 80}, Slots: []int{0, 1, 2, 3, 4, 5}}
	rows, err := runCells(o, len(res.StdsUs), func(i int) (core.Scenario, error) {
		net, err := t10x2.Build(o.Seed)
		return core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: core.DOMINO,
			Seed: o.Seed, Duration: o.Duration, Traffic: core.Saturated,
			TuneDomino: func(c *domino.Config) {
				c.WiredLatencyStd = sim.Micros(res.StdsUs[i])
			},
		}, err
	}, func(_ int, r core.Result) []float64 {
		row := make([]float64, 0, len(res.Slots))
		for _, slot := range res.Slots {
			row = append(row, r.Misalign.Max(slot).Microseconds())
		}
		return row
	})
	res.MaxUs = rows
	return res, err
}

// Print renders the Fig 11 series.
func (r Fig11Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 11: max TX misalignment (µs) at the start of the CFP, T(10,2)")
	hline(w, 60)
	fmt.Fprintf(w, "%-14s", "jitter σ (µs)")
	for _, s := range r.Slots {
		fmt.Fprintf(w, "  slot%-2d", s)
	}
	fmt.Fprintln(w)
	for i, std := range r.StdsUs {
		fmt.Fprintf(w, "%-14.0f", std)
		for _, v := range r.MaxUs[i] {
			fmt.Fprintf(w, "%8.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// Timeline is the obs.Tracer the Fig 10 microscope reads a DOMINO run
// through. It keeps the first max timeline records: slot_start, slot_end,
// trigger, and the medium's tx_start records of ACK and POLL frames.
type Timeline struct {
	max  int
	recs []obs.Record
	// stop, when set, is called once the timeline is full.
	stop func()
}

// NewTimeline returns a Timeline that keeps the first max records.
func NewTimeline(max int) *Timeline { return &Timeline{max: max} }

// Records returns the kept records in emission order.
func (t *Timeline) Records() []obs.Record { return t.recs }

// Emit implements obs.Tracer.
func (t *Timeline) Emit(r obs.Record) {
	switch {
	case len(t.recs) >= t.max:
		return
	case r.Kind == obs.KindSlotStart, r.Kind == obs.KindSlotEnd, r.Kind == obs.KindTrigger:
	case r.Kind == obs.KindTxStart && (r.Aux == "ACK" || r.Aux == "POLL"):
	default:
		return
	}
	t.recs = append(t.recs, r)
	if len(t.recs) == t.max && t.stop != nil {
		t.stop()
	}
}

// Fig10 runs the Fig 7 network with all flows saturated until it has the
// first maxEvents timeline records (or o.Duration elapses) and returns
// them — the Fig 10 timeline.
func Fig10(o Options, maxEvents int) ([]obs.Record, error) {
	o = o.withDefaults()
	tl := NewTimeline(maxEvents)
	inst, err := core.NewInstance(core.Scenario{
		Net: topo.Figure7(), Downlink: true, Uplink: true, Scheme: core.DOMINO,
		Seed: o.Seed, Duration: o.Duration, Traffic: core.Saturated,
		Tracer: tl,
	})
	if err != nil {
		return nil, err
	}
	tl.stop = inst.Kernel.Stop
	inst.Step(inst.S.Duration)
	return tl.Records(), nil
}

// PrintFig10 renders the timeline. Slot-end lines carry the slot the
// broadcast closes; ACK and POLL lines carry no slot index.
func PrintFig10(w io.Writer, events []obs.Record) {
	fmt.Fprintln(w, "Fig 10: DOMINO timeline on the Fig 7 network (excerpt)")
	hline(w, 60)
	for _, ev := range events {
		label, slot := ev.Kind.String(), fmt.Sprint(ev.Slot)
		switch ev.Kind {
		case obs.KindSlotStart:
			label = ev.Aux
		case obs.KindSlotEnd:
			label = "bcast"
		case obs.KindTxStart:
			label, slot = strings.ToLower(ev.Aux), ""
		}
		link := ""
		if ev.Link >= 0 {
			link = fmt.Sprintf("link %d", ev.Link)
		}
		fmt.Fprintf(w, "%12v  slot %-4s %-10s node %-3d %s\n", ev.At, slot, label, ev.Node, link)
	}
}
