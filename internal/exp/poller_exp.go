package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/topo"
)

// PollerSweepPoint is one (poller, client count) cell of the sweep.
type PollerSweepPoint struct {
	Poller  string
	Clients int
	// DecodeRatio is decoded reports over all judged reports across the run's
	// polling cycles (1.0 = every polled client reported every cycle).
	DecodeRatio float64
	// OverheadPct approximates the air time polling consumed: poll rounds ×
	// the nominal ROP slot over the run duration, in percent.
	OverheadPct float64
	// Unpolled is how many clients the poller's layout could not fit
	// (Engine.UnpolledClients; nonzero only for bounded pollers like ROP).
	Unpolled int
	// Collisions counts random-access losses (UORA; zero for scheduled
	// pollers).
	Collisions     int
	ThroughputMbps float64
}

// PollerSweepResult compares every registered polling scheme (internal/poll
// registry) as the per-AP client count grows past ROP's 24-subchannel
// ceiling: the paper's single-symbol ROP truncates, A2P spends extra rounds,
// UORA spends collisions.
type PollerSweepResult struct {
	Pollers []string
	Counts  []int
	// Points is row-major: Points[p*len(Counts)+c] is Pollers[p] at Counts[c].
	Points []PollerSweepPoint
}

// PollerSweepCounts is the default per-AP client-count axis: brackets below,
// at, and well past the 24-subchannel ROP ceiling.
var PollerSweepCounts = []int{6, 12, 24, 48, 96}

// PollerSweep runs a saturated single-AP star once per registered poller and
// client count, selected purely by name through domino.Config.Poller — the
// same path a spec file's scheme_config.poller takes.
func PollerSweep(o Options) (PollerSweepResult, error) {
	o = o.withDefaults()
	res := PollerSweepResult{Pollers: poll.Registry.Names(), Counts: PollerSweepCounts}
	// Cell i is poller i/nc at client count i%nc (Points' row-major order).
	nc := len(res.Counts)
	points, err := runCells(o, len(res.Pollers)*nc, func(i int) (core.Scenario, error) {
		return core.Scenario{
			Net: topo.GridCampus(o.Seed, 1, 1, res.Counts[i%nc]), Downlink: true, Uplink: true,
			Scheme: core.DOMINO, Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic:    core.Saturated,
			TuneDomino: func(cfg *domino.Config) { cfg.Poller = res.Pollers[i/nc] },
		}, nil
	}, func(i int, r core.Result) PollerSweepPoint {
		pt := PollerSweepPoint{Poller: res.Pollers[i/nc], Clients: res.Counts[i%nc], ThroughputMbps: r.AggregateMbps}
		if e := r.Domino; e != nil {
			if judged := e.PollDecoded + e.PollFailed; judged > 0 {
				pt.DecodeRatio = float64(e.PollDecoded) / float64(judged)
			}
			pt.OverheadPct = 100 * float64(e.PollRounds) * float64(phy.ROPSlotDuration) / float64(o.Duration)
			pt.Unpolled = len(e.UnpolledClients)
			pt.Collisions = e.PollCollisions
		}
		return pt
	})
	res.Points = points
	return res, err
}

// Print renders the per-poller scaling comparison.
func (r PollerSweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Poller sweep: DOMINO under each registered polling scheme, single-AP star, saturated")
	hline(w, 86)
	fmt.Fprintf(w, "%-8s %8s %12s %12s %10s %11s %12s\n",
		"poller", "clients", "decode", "overhead %", "unpolled", "collisions", "tput (Mbps)")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-8s %8d %12.3f %12.3f %10d %11d %12.2f\n",
			pt.Poller, pt.Clients, pt.DecodeRatio, pt.OverheadPct,
			pt.Unpolled, pt.Collisions, pt.ThroughputMbps)
	}
}

// CSV writes one row per (poller, client count) point.
func (r PollerSweepResult) CSV(w io.Writer) error {
	rows := make([][]string, len(r.Points))
	for i, pt := range r.Points {
		rows[i] = []string{
			pt.Poller,
			fmt.Sprintf("%d", pt.Clients),
			fmt.Sprintf("%.4f", pt.DecodeRatio),
			fmt.Sprintf("%.4f", pt.OverheadPct),
			fmt.Sprintf("%d", pt.Unpolled),
			fmt.Sprintf("%d", pt.Collisions),
			fmt.Sprintf("%.4f", pt.ThroughputMbps),
		}
	}
	return writeCSV(w, []string{"poller", "clients", "decode_ratio", "overhead_pct",
		"unpolled", "collisions", "throughput_mbps"}, rows)
}
