package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
)

// hostTime is a host time as measured (raw) and as it would have been with
// the yardstick running at its reference speed (ref); see yardstick.go.
type hostTime struct{ raw, ref time.Duration }

// add accumulates d, measured right after a yardstick slice that took ys;
// ys == 0 (no yardstick) counts d unscaled.
func (h *hostTime) add(d, ys time.Duration) {
	h.raw += d
	if ys == 0 {
		h.ref += d
		return
	}
	h.ref += time.Duration(float64(d) * refSliceSeconds / ys.Seconds())
}

func (h hostTime) plus(o hostTime) hostTime { return hostTime{h.raw + o.raw, h.ref + o.ref} }

// runStats is what one run measured. cpu is the process's user+system time,
// so it includes the garbage collector's background workers.
type runStats struct {
	// setup covers the topology and instance builds; run and cpu cover
	// Step and Finish.
	setup, run, cpu hostTime

	// res is the run's Result with the engine and collector pointers
	// cleared, so a kept result does not keep the whole simulation alive.
	res    core.Result
	events uint64 // kernel events fired, summed over shard domains
	nodes  int

	// Traced runs only.
	metrics    *obs.Metrics
	pendingMax int
	// breakdowns holds the airtime breakdown, one per shard domain.
	breakdowns []obs.Breakdown
	// Allocation and GC activity during Step and Finish.
	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
}

// roundStats is one pass over every run of a workload.
type roundStats struct {
	runs   []runStats
	digest string
}

func (r roundStats) setup() (h hostTime) {
	for _, s := range r.runs {
		h = h.plus(s.setup)
	}
	return h
}

func (r roundStats) run() (h hostTime) {
	for _, s := range r.runs {
		h = h.plus(s.run)
	}
	return h
}

func (r roundStats) cpu() (h hostTime) {
	for _, s := range r.runs {
		h = h.plus(s.cpu)
	}
	return h
}

// roundOpts selects what a round records beyond the untraced timings.
type roundOpts struct {
	// spans, when non-nil, makes the round a traced one: every run gets an
	// obs.Metrics registry and a counting kernel hook, and the round's
	// phases are recorded as spans.
	spans *spanLog
	// ys, when non-nil, is interleaved with every run: one slice before
	// the topology build, one after the instance build (which also serves
	// the first step slice), and one before each further slice of
	// simulated time. Each host time is scaled by the slice before it.
	ys *yardstick
}

// stepSlices is how many slices of simulated time a run is stepped in when
// the yardstick is interleaved. Stepping in slices executes exactly the
// events one Step to the end would.
const stepSlices = 16

// execRound runs every run of w once. Any run error or broken invariant
// fails the whole round: its digest would not describe the workload.
func execRound(w *workload, o roundOpts) (roundStats, error) {
	var rs roundStats
	var roundSpan int64
	if o.spans != nil {
		roundSpan = o.spans.begin(o.spans.root, "round", "")
	}
	h := sha256.New()
	for _, r := range w.runs {
		st, err := execRun(r, o, roundSpan)
		if err == nil {
			err = checkRun(r, st)
		}
		if err != nil {
			return rs, fmt.Errorf("%s: %w", r.label, err)
		}
		writeCanonical(h, r.label, st.res)
		rs.runs = append(rs.runs, st)
	}
	if o.spans != nil {
		o.spans.end(roundSpan)
	}
	rs.digest = hex.EncodeToString(h.Sum(nil))
	return rs, nil
}

// execRun builds and runs one simulation. A panic inside the simulator is
// reported as the run's error so it counts as a failed run.
func execRun(r run, o roundOpts, parent int64) (st runStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	// Start every run from a collected heap, so one run's garbage is not
	// charged to the next.
	runtime.GC()
	sp := o.spans
	var runSpan, phase int64
	if sp != nil {
		runSpan = sp.begin(parent, "run", r.label)
	}
	var ys time.Duration // the latest yardstick slice's wall time
	ysSlice := func() {
		if o.ys != nil {
			ys = o.ys.slice()
		}
	}

	ysSlice()
	ysBefore := ys
	t0 := time.Now()
	if sp != nil {
		phase = sp.begin(runSpan, "topo_build", "")
	}
	net, err := r.build()
	if err != nil {
		return st, fmt.Errorf("topology: %w", err)
	}
	if sp != nil {
		sp.end(phase)
		phase = sp.begin(runSpan, "instance_build", "")
	}
	sc := r.sc
	sc.Net = net
	if sp != nil {
		sc.Metrics = obs.NewMetrics()
		st.metrics = sc.Metrics
	}
	var (
		insts   []*core.Instance
		sharded *shard.Steppable
		inst    *core.Instance
	)
	if r.shards > 0 {
		sharded, err = shard.New(sc, shard.Options{Workers: r.shards})
		if err == nil {
			insts = sharded.Instances()
		}
	} else {
		inst, err = core.NewInstance(sc)
		insts = []*core.Instance{inst}
	}
	if err != nil {
		return st, fmt.Errorf("build: %w", err)
	}
	// One pending-queue high-water mark per kernel: shard domains run on
	// separate goroutines, so each hook writes only its own slot.
	pending := make([]int, len(insts))
	if sp != nil {
		for d, in := range insts {
			d, next := d, in.Obs.KernelHook()
			in.Kernel.OnEvent(func(info sim.EventInfo) {
				if info.Pending > pending[d] {
					pending[d] = info.Pending
				}
				next(info)
			})
		}
		sp.end(phase)
	}
	setupWall := time.Since(t0)
	// The set-up ran between two yardstick slices: scale it by their mean.
	ysSlice()
	st.setup.add(setupWall, (ysBefore+ys)/2)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if sp != nil {
		phase = sp.begin(runSpan, "step", "")
	}
	slices := 1
	if o.ys != nil {
		slices = stepSlices
	}
	for i := 1; i <= slices; i++ {
		if i > 1 {
			ysSlice()
		}
		h := sc.Duration * sim.Time(i) / sim.Time(slices)
		cpu0, t0 := cpuTime(), time.Now()
		if sharded != nil {
			for !sharded.Done() && sharded.Clock() < h {
				sharded.StepWindow()
			}
		} else {
			inst.Step(h)
		}
		st.run.add(time.Since(t0), ys)
		st.cpu.add(cpuTime()-cpu0, ys)
	}

	cpu0, t0 := cpuTime(), time.Now()
	if sp != nil {
		sp.end(phase)
		phase = sp.begin(runSpan, "finish", "")
	}
	var rep *shard.Report
	if sharded != nil {
		st.res, rep, err = sharded.Finish()
		if err != nil {
			return st, fmt.Errorf("finish: %w", err)
		}
	} else {
		st.res = inst.Finish()
	}
	st.run.add(time.Since(t0), ys)
	st.cpu.add(cpuTime()-cpu0, ys)
	if sp != nil {
		sp.end(phase)
		sp.end(runSpan)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	for d, in := range insts {
		st.events += in.Kernel.Fired()
		st.pendingMax = max(st.pendingMax, pending[d])
	}
	st.nodes = net.NumNodes()
	if sp != nil {
		st.breakdowns = breakdowns(st.res, rep)
	}
	st.res.Domino, st.res.Dcf, st.res.Centaur, st.res.Omni = nil, nil, nil, nil
	st.res.Collector, st.res.Misalign, st.res.TCPFlows = nil, nil, nil
	return st, nil
}

// checkRun asserts the invariants every run's outputs must satisfy,
// including, for traced runs, that each airtime breakdown partitions the
// run duration exactly.
func checkRun(r run, st runStats) error {
	res := st.res
	if len(res.PerLinkMbps) != len(res.Links) {
		return fmt.Errorf("%d per-link rates for %d links", len(res.PerLinkMbps), len(res.Links))
	}
	for i, v := range res.PerLinkMbps {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("link %d rate %v", i, v)
		}
	}
	// Jain's index is at most 1; summation order can round it just above.
	if !(res.AggregateMbps > 0) || !(res.Fairness > 0 && res.Fairness <= 1+1e-9) {
		return fmt.Errorf("aggregate %v Mbps, fairness %v", res.AggregateMbps, res.Fairness)
	}
	if res.MeanDelay <= 0 || res.MeanDelayPerLink <= 0 {
		return fmt.Errorf("mean delay %v, per-link %v", res.MeanDelay, res.MeanDelayPerLink)
	}
	for _, b := range st.breakdowns {
		var sum sim.Time
		for _, d := range b.PerBucket {
			sum += d
		}
		if sum != b.Total || b.Total != r.sc.Duration {
			return fmt.Errorf("airtime breakdown sums to %v, total %v, duration %v", sum, b.Total, r.sc.Duration)
		}
	}
	return nil
}

// breakdowns returns a traced run's airtime breakdowns: one, or one per
// shard domain.
func breakdowns(res core.Result, rep *shard.Report) []obs.Breakdown {
	if rep == nil {
		if res.Breakdown == nil {
			return nil
		}
		return []obs.Breakdown{*res.Breakdown}
	}
	var out []obs.Breakdown
	for _, d := range rep.PerDomain {
		if d.Breakdown != nil {
			out = append(out, *d.Breakdown)
		}
	}
	return out
}

// writeCanonical feeds the run's simulated outputs to the digest. Kernel
// event counts are left out on purpose: a change that removes redundant
// events without changing any outcome keeps the digest.
func writeCanonical(h hash.Hash, label string, res core.Result) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(h, "run %s\n", label)
	for i, v := range res.PerLinkMbps {
		fmt.Fprintf(h, "link %d %s\n", i, f(v))
	}
	fmt.Fprintf(h, "data %s delay %d per_link_delay %d fairness %s\n",
		f(res.DataMbps), int64(res.MeanDelay), int64(res.MeanDelayPerLink), f(res.Fairness))
	io.WriteString(h, "skipped")
	for _, l := range res.SkippedLinks {
		fmt.Fprintf(h, " %d", l.ID)
	}
	io.WriteString(h, "\nunpolled")
	for _, c := range res.UnpolledClients {
		fmt.Fprintf(h, " %d", c)
	}
	io.WriteString(h, "\n")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
