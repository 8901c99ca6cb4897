package exp

import (
	"fmt"
	"io"

	"repro/internal/dcf"
	"repro/internal/domino"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// CoexistResult measures the §5 CFP/CoP split (Fig 15): a DOMINO cell and an
// external (un-schedulable) DCF pair share one collision domain. With no
// contention period the external pair starves behind DOMINO's NAV-protected
// chain; opening a CoP after every batch gives it a proportional share.
type CoexistResult struct {
	CoPMs []float64
	// DominoMbps/ExternalMbps per CoP setting.
	DominoMbps   []float64
	ExternalMbps []float64
}

// coexistNet builds four nodes in one contention domain: AP0/C1 (DOMINO)
// plus an external AP2/C3 pair outside DOMINO's control. All four share the
// channel and the links mutually interfere, so access control decides who
// gets air time.
func coexistNet() *topo.Network {
	return topo.TwoPairs(topo.SameContention)
}

// Coexist sweeps the CoP duration.
func Coexist(o Options) CoexistResult {
	o = o.withDefaults()
	res := CoexistResult{CoPMs: []float64{0, 2, 5, 10}}
	type share struct{ dom, ext float64 }
	shares := parallel.Map(o.Workers, len(res.CoPMs), func(i int) share {
		dom, ext := coexistRun(o, sim.Millis(res.CoPMs[i]), nil)
		return share{dom, ext}
	})
	for _, s := range shares {
		res.DominoMbps = append(res.DominoMbps, s.dom)
		res.ExternalMbps = append(res.ExternalMbps, s.ext)
	}
	return res
}

// coexistRun wires a DOMINO engine (pair 0) and a plain DCF engine (pair 1)
// onto one medium and saturates both. A non-nil tr receives the run's
// medium activity and DOMINO's typed records.
func coexistRun(o Options, cop sim.Time, tr obs.Tracer) (dominoMbps, externalMbps float64) {
	net := coexistNet()
	k := sim.New(o.Seed)
	medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
	var orun *obs.Run
	if tr != nil {
		orun = obs.NewRun(tr, nil).BindClock(k.Now)
		medium.SetProbe(orun)
		orun.Start("coexist", o.Seed)
	}

	// DOMINO side: pair 0 only (AP0, C1), downlink + uplink.
	domLinks := []*topo.Link{
		{ID: 0, Sender: 0, Receiver: 1, AP: 0, Downlink: true},
		{ID: 1, Sender: 1, Receiver: 0, AP: 0, Downlink: false},
	}
	domNet := &topo.Network{
		RSS:  net.RSS,
		IsAP: net.IsAP,
		APOf: net.APOf,
		APs:  []phy.NodeID{0},
	}
	g := topo.NewConflictGraph(domNet, domLinks, phy.DefaultConfig(), phy.Rate12)
	domHub := &mac.Hub{}
	dcfg := domino.DefaultConfig()
	dcfg.CoPDuration = cop
	domEngine := domino.New(k, medium, g, domHub, dcfg)
	if orun != nil {
		domEngine.WireObs(orun)
	}
	domColl := stats.NewCollector(len(domLinks), o.Warmup)
	domHub.Add(domColl)
	for _, l := range domLinks {
		s := traffic.NewSaturated(k, domEngine, l, 512, 8)
		domHub.Add(s)
		s.Start()
	}

	// External side: pair 1 (AP2 → C3) under plain DCF.
	extLinks := []*topo.Link{
		{ID: 0, Sender: 2, Receiver: 3, AP: 2, Downlink: true},
	}
	extHub := &mac.Hub{}
	extEngine := dcf.New(k, medium, extLinks, extHub, dcf.DefaultConfig())
	extColl := stats.NewCollector(len(extLinks), o.Warmup)
	extHub.Add(extColl)
	for _, l := range extLinks {
		s := traffic.NewSaturated(k, extEngine, l, 512, 8)
		extHub.Add(s)
		s.Start()
	}

	domEngine.Start()
	extEngine.Start()
	k.RunUntil(o.Duration)
	return domColl.AggregateMbps(o.Duration), extColl.AggregateMbps(o.Duration)
}

// Print renders the coexistence sweep.
func (r CoexistResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§5 / Fig 15: CFP/CoP coexistence with external DCF traffic")
	hline(w, 56)
	fmt.Fprintf(w, "%-18s", "CoP per batch (ms)")
	for _, c := range r.CoPMs {
		fmt.Fprintf(w, "%9.0f", c)
	}
	fmt.Fprintf(w, "\n%-18s", "DOMINO (Mbps)")
	for _, v := range r.DominoMbps {
		fmt.Fprintf(w, "%9.2f", v)
	}
	fmt.Fprintf(w, "\n%-18s", "external (Mbps)")
	for _, v := range r.ExternalMbps {
		fmt.Fprintf(w, "%9.2f", v)
	}
	fmt.Fprintln(w)
}
