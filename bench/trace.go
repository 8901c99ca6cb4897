package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// span is one timed phase of the benchmark's calls into the simulator.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps a traced invocation's spans in memory until it ends:
// workload, then round, then run (scheme and placement), then the
// topo_build, instance_build, step and finish phases.
type spanLog struct {
	t0    time.Time
	root  int64
	spans []span
}

func newSpanLog(workload string) *spanLog {
	l := &spanLog{t0: time.Now()}
	l.root = l.begin(0, "workload", workload)
	return l
}

func (l *spanLog) begin(parent int64, name, label string) int64 {
	l.spans = append(l.spans, span{
		ID: int64(len(l.spans) + 1), Parent: parent, Name: name, Label: label,
		StartNs: time.Since(l.t0).Nanoseconds(),
	})
	return int64(len(l.spans))
}

func (l *spanLog) end(id int64) { l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds() }

// total sums the durations of every span with the given name.
func (l *spanLog) total(name string) time.Duration {
	var d int64
	for _, s := range l.spans {
		if s.Name == name {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

// tracedResult is what a traced invocation measured.
type tracedResult struct {
	metrics   map[string]float64
	digest    string
	attempted int
}

// traceWorkload runs w once untraced, for the reference digest and the
// allocation counts, then repeats it traced for at least the given time:
// under a 100 Hz CPU profile, with an obs.Metrics registry and a counting
// kernel hook on every run, and with spans around every call. Counts come
// from the first traced round; host times are per-round means over all
// traced rounds.
func traceWorkload(w *workload, seconds time.Duration, outDir string) (tracedResult, error) {
	var tr tracedResult
	base, err := execRound(w, roundOpts{})
	tr.attempted += len(base.runs)
	if err != nil {
		tr.attempted++
		return tr, err
	}
	tr.digest = base.digest

	spans := newSpanLog(w.name)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tr, fmt.Errorf("cpu profile: %w", err)
	}
	cpu0, start := cpuTime(), time.Now()
	var traced []roundStats
	for len(traced) == 0 || time.Since(start) < seconds {
		rs, err := execRound(w, roundOpts{spans: spans})
		tr.attempted += len(rs.runs)
		if err == nil && rs.digest != base.digest {
			err = fmt.Errorf("traced digest %s differs from untraced %s", rs.digest, base.digest)
		}
		if err != nil {
			pprof.StopCPUProfile()
			tr.attempted++
			return tr, err
		}
		traced = append(traced, rs)
	}
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0
	spans.end(spans.root)
	if err := writeSpans(spans, filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return tr, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return tr, err
	}

	n := float64(len(traced))
	m := map[string]float64{}
	for l, share := range layerShares(samples) {
		m[l+".self_s"] = share * cpu.Seconds() / n
	}
	m["trace.cpu_s"] = cpu.Seconds() / n
	var tracedWall time.Duration
	for _, rs := range traced {
		tracedWall += rs.setup().raw + rs.run().raw
	}
	m["trace_overhead_frac"] = tracedWall.Seconds()/n/(base.setup().raw+base.run().raw).Seconds() - 1
	for _, name := range []string{"topo_build", "instance_build", "step", "finish"} {
		m["span."+name+"_s"] = spans.total(name).Seconds() / n
	}

	addCounts(m, w, traced[0])
	addRuntime(m, w, base)
	results := make([]core.Result, len(base.runs))
	for i, st := range base.runs {
		results[i] = st.res
	}
	mo := w.model(results)
	m["model.domino_mbps"] = mo.dominoMbps
	m["model.domino_gain"] = mo.dominoGain
	m["model.delay_ratio"] = mo.delayRatio
	m["model.paper_err_pct"] = mo.paperErrPct
	m["model.fig14_infeasible"] = float64(w.infeasible)
	tr.metrics = m
	return tr, nil
}

// addCounts derives the simulated per-layer counts of one traced round.
// They depend only on the inputs, so every traced round gives the same.
func addCounts(m map[string]float64, w *workload, rs roundStats) {
	reg := obs.NewMetrics()
	var idle, total float64
	for _, st := range rs.runs {
		reg.Merge(st.metrics)
		m["sim.events"] += float64(st.events)
		m["sim.pending_max"] = max(m["sim.pending_max"], float64(st.pendingMax))
		m["topo.nodes"] += float64(st.nodes)
		m["topo.links"] += float64(len(st.res.Links))
		for _, b := range st.breakdowns {
			idle += b.Of(obs.BucketIdle).Seconds()
			total += b.Total.Seconds()
		}
	}
	snap := reg.Snapshot()
	get := func(name string) float64 {
		mv, _ := snap.Get(name)
		return mv.Value
	}
	m["sim.events_per_sim_s"] = m["sim.events"] / w.simTime()
	for _, src := range []string{"phy", "mac", "traffic"} {
		m["sim.events."+src] = get("kernel.fired." + src)
	}
	for _, kind := range []string{"data", "ack", "signature", "poll", "fake"} {
		m["phy.tx."+kind] = get("phy.tx." + kind)
	}
	m["phy.collisions"] = get("phy.collisions")
	m["phy.deliver_ratio"] = ratio(get("mac.delivered"), get("phy.tx.data"))
	m["airtime.idle_frac"] = ratio(idle, total)
	m["convert.batches"] = get("convert.batches")
	m["convert.slots"] = get("convert.slots")
	m["convert.cache_hit_ratio"] = ratio(get("convert.cache.hits"), get("convert.cache.hits")+get("convert.cache.misses"))
	m["convert.fake_ratio"] = ratio(get("convert.entries.fake"), get("convert.entries.fake")+get("convert.entries.real"))
	m["poll.rounds"] = get("poll.rounds")
	m["poll.decode_ratio"] = ratio(get("poll.decoded"), get("poll.decoded")+get("poll.failed"))
	m["poll.collisions"] = get("poll.collisions")
	m["mac.delivered"] = get("mac.delivered")
	m["mac.drop_ratio"] = ratio(get("mac.dropped"), get("mac.delivered")+get("mac.dropped"))
	qd, _ := snap.Get("mac.qdelay_us")
	m["mac.qdelay_us.p50"] = qd.P50
	m["mac.qdelay_us.p99"] = qd.P99
	for _, c := range []string{"domains", "windows", "messages"} {
		m["shard."+c] = get("shard." + c)
	}
}

// addRuntime derives the allocation and GC counts of an untraced round,
// taken around Step and Finish only.
func addRuntime(m map[string]float64, w *workload, rs roundStats) {
	var mallocs, bytes, cycles, events uint64
	var pause time.Duration
	for _, st := range rs.runs {
		mallocs += st.mallocs
		bytes += st.allocBytes
		cycles += st.gcCycles
		pause += st.gcPause
		events += st.events
	}
	m["alloc.per_event"] = ratio(float64(mallocs), float64(events))
	m["alloc.bytes_per_sim_s"] = float64(bytes) / w.simTime()
	m["gc.cycles"] = float64(cycles)
	m["gc.pause_s"] = pause.Seconds()
}

func writeSpans(l *spanLog, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
