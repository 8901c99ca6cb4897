// Package shard runs one scenario as a set of per-interference-domain
// engine instances executing in parallel — the multi-core path for
// campus-scale topologies whose conflict graphs decompose into weakly
// coupled clusters (internal/topo.PartitionDomains).
//
// Execution model: every domain gets its own sim.Kernel + engine instance
// (core.NewInstance on the extracted subnetwork), and every domain runs to
// the global deadline with no synchronization at all. Conflict edges the
// partition severed are approximated away when the domains are built —
// the residual interference is what accepting the RSS cut gives up, and
// topo.CutStats reports how much of it there is.
//
// Determinism contract: domains, per-domain seeds and every merge step
// depend only on the topology and the scenario — never on the worker count
// or OS scheduling. The merged trace, metrics snapshot and Result are
// byte-identical at any Workers value, pinned by TestShardCountDeterminism.
package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// spanBaseShift namespaces per-domain span ids: domain d allocates ids
// above d<<40, far beyond any single run's span count.
const spanBaseShift = 40

// Options tunes a sharded run.
type Options struct {
	// Workers is the shard count — worker goroutines domains are scheduled
	// onto (≤ 0: all cores). Output is independent of this value.
	Workers int
	// StepGranule bounds how much simulated time one Steppable.StepWindow
	// call advances every domain (0: the whole run in one step). Kernels
	// step via RunUntil, so any granule produces byte-identical output.
	StepGranule sim.Time
}

// Report describes how a sharded run executed: the partition, the worker
// count and the per-domain results.
type Report struct {
	Partition *topo.Partition
	// Workers is the resolved worker count the domains were scheduled on.
	Workers int
	// PerDomain holds each domain's local Result (local link ids).
	PerDomain []core.Result
}

// Run executes the scenario sharded by interference domain and returns the
// merged Result plus the execution Report. The scenario's Links must be nil
// (links are rebuilt per domain from the Downlink/Uplink flags). It is the
// one-shot wrapper around the steppable decomposition: New, StepWindow until
// done, Finish.
func Run(s core.Scenario, opt Options) (core.Result, *Report, error) {
	st, err := New(s, opt)
	if err != nil {
		return core.Result{}, nil, err
	}
	for !st.StepWindow() {
	}
	return st.Finish()
}

// Steppable is a sharded run decomposed into explicit steps of
// Options.StepGranule, so a driver can do its own work between steps (the
// benchmark interleaves its yardstick there). Construct with New, call
// StepWindow until it reports done, then Finish exactly once. Run is the
// loop-it-all wrapper.
type Steppable struct {
	s       core.Scenario
	opt     Options
	links   []*topo.Link
	p       *topo.Partition
	insts   []*core.Instance
	tracers []*remapTracer
	metrics []*obs.Metrics
	rep     *Report

	// clock is the horizon the last completed step advanced to.
	clock sim.Time
	done  bool
}

// New builds the per-domain instances and the report skeleton —
// everything Run does before its execute loop.
func New(s core.Scenario, opt Options) (*Steppable, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("shard: Scenario.Net is nil")
	}
	if s.Links != nil {
		return nil, fmt.Errorf("shard: custom link sets are not shardable; use Downlink/Uplink flags")
	}
	if err := s.Net.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid network: %w", err)
	}
	// Normalize exactly like core.NewInstance so step horizons and merged
	// rates use the same values the instances will.
	s = s.WithDefaults()

	links := s.Net.BuildLinks(s.Downlink, s.Uplink)
	pcfg := phy.DefaultConfig()
	if s.PhyConfig != nil {
		pcfg = *s.PhyConfig
	}
	g := topo.NewConflictGraph(s.Net, links, pcfg, s.Rate)
	p := topo.PartitionDomains(g, topo.DefaultCutDBm)

	rep := &Report{Partition: p, Workers: parallel.Workers(opt.Workers)}
	nd := len(p.Domains)

	// Per-domain instances. Seeds derive from the domain index only, so a
	// domain's whole event stream is independent of the worker count.
	insts := make([]*core.Instance, nd)
	tracers := make([]*remapTracer, nd)
	metrics := make([]*obs.Metrics, nd)
	for d := 0; d < nd; d++ {
		sub, nodeMap := p.Subnet(d)
		sd := s
		sd.Net = sub
		sd.Seed = parallel.Seed(s.Seed, d, parallel.DefaultStride)
		if s.Tracer != nil {
			tracers[d] = newRemapTracer(d, nodeMap, p.Domains[d].Links)
			sd.Tracer = tracers[d]
		}
		if s.Metrics != nil {
			metrics[d] = obs.NewMetrics()
			sd.Metrics = metrics[d]
		}
		if sd.Tracer != nil || sd.Metrics != nil {
			nm, di := nodeMap, d
			sd.ObsSetup = func(r *obs.Run) {
				r.SetSpanBase(int64(di+1) << spanBaseShift)
				r.SetNodeMapper(func(local int) int { return int(nm[local]) })
			}
		}
		inst, err := core.NewInstance(sd)
		if err != nil {
			return nil, fmt.Errorf("shard: domain %d: %w", d, err)
		}
		insts[d] = inst
	}

	return &Steppable{
		s: s, opt: opt, links: links, p: p,
		insts: insts, tracers: tracers, metrics: metrics, rep: rep,
	}, nil
}

// Instances exposes the per-domain cores in domain-index order, for
// callers that read kernel or engine state between steps. Callers must not
// step them directly.
func (st *Steppable) Instances() []*core.Instance { return st.insts }

// Done reports whether the run has reached its deadline.
func (st *Steppable) Done() bool { return st.done }

// Clock returns the horizon the run has advanced to (0 before any step).
func (st *Steppable) Clock() sim.Time { return st.clock }

// StepWindow advances every domain by one step granule (to the deadline
// when the granule is 0 or reaches past it) and reports whether the run is
// done. Domains step independently on the worker pool; the only barrier is
// the return of the call itself.
func (st *Steppable) StepWindow() bool {
	if st.done {
		return true
	}
	h := st.s.Duration
	if g := st.opt.StepGranule; g > 0 && st.clock+g < h {
		h = st.clock + g
	}
	final := h == st.s.Duration
	parallel.ForEach(st.opt.Workers, len(st.insts), func(d int) { st.insts[d].Step(h) })
	st.clock, st.done = h, final
	return final
}

// Finish merges the per-domain results into the campus-wide Result and
// emits the merged trace. Call exactly once, after StepWindow reports done.
func (st *Steppable) Finish() (core.Result, *Report, error) {
	if !st.done {
		return core.Result{}, nil, fmt.Errorf("shard: Finish before the run reached its deadline (clock %v of %v)", st.Clock(), st.s.Duration)
	}
	s, rep := st.s, st.rep

	// Merge. Every step below iterates domains in index order, so the
	// merged result is a pure function of the partition.
	for d := 0; d < len(st.p.Domains); d++ {
		rep.PerDomain = append(rep.PerDomain, st.insts[d].Finish())
	}
	res := mergeResults(s, st.links, st.p, rep, st.metrics)
	if s.Tracer != nil {
		emitMerged(s, st.p, rep, st.tracers, res)
	}
	return res, rep, nil
}

// mergeResults folds the per-domain results into one campus-wide Result in
// the global link index space.
func mergeResults(s core.Scenario, links []*topo.Link, p *topo.Partition, rep *Report, metrics []*obs.Metrics) core.Result {
	res := core.Result{Links: links, DataLinkID: map[int]bool{}}
	coll := stats.NewCollector(len(links), s.Warmup)
	for d, dr := range rep.PerDomain {
		linkMap := p.Domains[d].Links
		coll.MergeMapped(dr.Collector, func(local int) int { return linkMap[local] })
		for local := range dr.DataLinkID {
			res.DataLinkID[linkMap[local]] = true
		}
		for _, l := range dr.SkippedLinks {
			res.SkippedLinks = append(res.SkippedLinks, links[linkMap[l.ID]])
		}
	}
	res.Collector = coll
	res.Summarize(s.Duration)

	if s.Metrics != nil {
		for d := range metrics {
			s.Metrics.Merge(metrics[d])
		}
		s.Metrics.Counter("shard.domains").Add(int64(len(p.Domains)))
		s.Metrics.Counter("shard.cut_edges").Add(int64(p.Stats.CutEdges))
		s.Metrics.Counter("shard.cross_link_pairs").Add(int64(p.Stats.CrossLinkPairs))
		res.Snapshot = s.Metrics.Snapshot()
	}
	return res
}

// emitMerged streams the merged trace: a global run-open record labelled
// with the registry's canonical scheme name (as core.NewInstance does), the
// k-way-merged per-domain streams, the merged-registry histogram summaries
// (mirroring obs.Run.Finish), and the global run-close record. The merge
// key is (timestamp, domain, stream order) — independent of Workers.
func emitMerged(s core.Scenario, p *topo.Partition, rep *Report, tracers []*remapTracer, res core.Result) {
	start := obs.Rec(0, obs.KindRunStart)
	start.Value = s.Seed
	start.Aux = string(s.Scheme)
	if d, ok := scheme.Registry.Lookup(start.Aux); ok {
		start.Aux = d.Name
	}
	s.Tracer.Emit(start)

	mergeStreams(tracers, s.Tracer)

	var collisions int64
	for _, dr := range rep.PerDomain {
		if dr.Breakdown != nil {
			collisions += dr.Breakdown.Collisions
		}
	}
	if s.Metrics != nil {
		for _, mv := range res.Snapshot {
			if mv.Kind != "loghist" {
				continue
			}
			rec := obs.Rec(s.Duration, obs.KindMetric)
			rec.Aux = mv.Name
			rec.Value = int64(mv.Value)
			rec.Extra = int64(mv.P99)
			s.Tracer.Emit(rec)
		}
	}
	end := obs.Rec(s.Duration, obs.KindRunEnd)
	end.Value = collisions
	s.Tracer.Emit(end)
}

// mergeStreams k-way merges the per-domain record streams by
// (At, domain, stream position) into out. Streams are individually
// time-ordered (each comes from one single-threaded event loop), so a heap
// over the stream heads yields a total deterministic order.
func mergeStreams(tracers []*remapTracer, out obs.Tracer) {
	type head struct {
		domain int
		pos    int
	}
	heads := make([]head, 0, len(tracers))
	for d, tr := range tracers {
		if tr != nil && len(tr.recs) > 0 {
			heads = append(heads, head{domain: d})
		}
	}
	less := func(a, b head) bool {
		ra, rb := tracers[a.domain].recs[a.pos], tracers[b.domain].recs[b.pos]
		if ra.At != rb.At {
			return ra.At < rb.At
		}
		return a.domain < b.domain
	}
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if less(heads[i], heads[best]) {
				best = i
			}
		}
		h := heads[best]
		out.Emit(tracers[h.domain].recs[h.pos])
		h.pos++
		if h.pos < len(tracers[h.domain].recs) {
			heads[best] = h
		} else {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
}
