package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/strict"
)

// SchedulerSweepResult compares DOMINO under every registered strict
// scheduling policy (internal/strict registry) on the same topology and
// workload: the converter is scheduler-agnostic (§3, contribution 1), so any
// throughput spread comes from the policies themselves.
type SchedulerSweepResult struct {
	Schedulers []string
	// Saturated-workload rows, indexed like Schedulers.
	ThroughputMbps []float64
	Fairness       []float64
	DelayUs        []float64
	SelfStarts     []int
}

// SchedulerSweep runs saturated T(10,2) once per registered scheduler,
// selected purely by name through domino.Config.Scheduler — the same path a
// spec file's scheme_config.scheduler takes.
func SchedulerSweep(o Options) (SchedulerSweepResult, error) {
	o = o.withDefaults()
	res := SchedulerSweepResult{Schedulers: strict.Schedulers.Names()}
	type row struct {
		tput, fair, delayUs float64
		selfStarts          int
	}
	rows, err := runCells(o, len(res.Schedulers), func(i int) (core.Scenario, error) {
		net, err := t10x2.Build(o.Seed)
		return core.Scenario{
			Net: net, Downlink: true, Uplink: true, Scheme: core.DOMINO,
			Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup,
			Traffic:    core.Saturated,
			TuneDomino: func(c *domino.Config) { c.Scheduler = res.Schedulers[i] },
		}, err
	}, func(_ int, r core.Result) row {
		rw := row{tput: r.AggregateMbps, fair: r.Fairness, delayUs: r.MeanDelayPerLink.Microseconds()}
		if r.Domino != nil {
			rw.selfStarts = r.Domino.SelfStarts
		}
		return rw
	})
	if err != nil {
		return res, err
	}
	for _, rw := range rows {
		res.ThroughputMbps = append(res.ThroughputMbps, rw.tput)
		res.Fairness = append(res.Fairness, rw.fair)
		res.DelayUs = append(res.DelayUs, rw.delayUs)
		res.SelfStarts = append(res.SelfStarts, rw.selfStarts)
	}
	return res, nil
}

// Print renders the per-scheduler comparison.
func (r SchedulerSweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Scheduler sweep: DOMINO under each registered strict policy, T(10,2) saturated")
	hline(w, 78)
	fmt.Fprintf(w, "%-14s %12s %9s %11s %11s\n",
		"scheduler", "tput (Mbps)", "Jain", "delay (µs)", "self-starts")
	for i, name := range r.Schedulers {
		fmt.Fprintf(w, "%-14s %12.2f %9.3f %11.0f %11d\n",
			name, r.ThroughputMbps[i], r.Fairness[i], r.DelayUs[i], r.SelfStarts[i])
	}
}

// CSV writes one row per scheduler.
func (r SchedulerSweepResult) CSV(w io.Writer) error {
	rows := make([][]string, len(r.Schedulers))
	for i, name := range r.Schedulers {
		rows[i] = []string{
			name,
			fmt.Sprintf("%.4f", r.ThroughputMbps[i]),
			fmt.Sprintf("%.4f", r.Fairness[i]),
			fmt.Sprintf("%.1f", r.DelayUs[i]),
			fmt.Sprintf("%d", r.SelfStarts[i]),
		}
	}
	return writeCSV(w, []string{"scheduler", "throughput_mbps", "fairness", "delay_us", "self_starts"}, rows)
}
