// Package shard runs one scenario as a set of per-interference-domain
// engine instances executing in parallel — the multi-core path for
// campus-scale topologies whose conflict graphs decompose into weakly
// coupled clusters (internal/topo.PartitionDomains).
//
// Execution model: every domain gets its own sim.Kernel + engine instance
// (core.NewInstance on the extracted subnetwork). Domains with no
// cross-domain coupling run to the global deadline with no synchronization
// at all. When the partition severed conflict edges, the coupled domains
// exchange per-window coupling-audit digests over deterministic per-pair
// ordered channels, and every domain advances in conservative-lookahead
// windows: the lookahead is the wired-backbone latency floor (the central
// server cannot influence a remote AP faster than the backbone's
// N(285 µs, σ 22 µs) jitter distribution can deliver a coordination
// message), so a window never needs input that a peer has not already
// produced.
//
// Determinism contract: domains, per-domain seeds, window boundaries,
// message routing order and every merge step depend only on the topology
// and the scenario — never on the worker count or OS scheduling. The
// merged trace, metrics snapshot and Result are byte-identical at any
// Workers value, pinned by TestShardCountDeterminism.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// LookaheadFloor returns the conservative window width derived from the
// wired-backbone jitter floor: the earliest instant a cross-domain
// coordination effect can land is one backbone traversal at the fast tail
// of the latency distribution, mean − 4σ of DOMINO's wired model
// (285 µs − 4·22 µs = 197 µs). Any window at most this wide is safe.
func LookaheadFloor() sim.Time {
	c := domino.DefaultConfig()
	return c.WiredLatencyMean - 4*c.WiredLatencyStd
}

// spanBaseShift namespaces per-domain span ids: domain d allocates ids
// above d<<40, far beyond any single run's span count.
const spanBaseShift = 40

// Options tunes a sharded run.
type Options struct {
	// Workers is the shard count — worker goroutines domains are scheduled
	// onto (≤ 0: all cores). Output is independent of this value.
	Workers int
	// StepGranule bounds how much simulated time one Steppable.StepWindow
	// call may advance an *uncoupled* partition (0: the whole run in one
	// step, the barrier-free fast path Run uses). The run-lifecycle layer
	// sets it so checkpoint/pause boundaries exist even when no
	// synchronization windows do; kernels step via RunBefore, so any
	// granule produces byte-identical output. Coupled partitions ignore it
	// — their lookahead windows are already fine-grained boundaries.
	StepGranule sim.Time
}

// Report describes how a sharded run executed: the partition, the window
// synchronization work, and the per-domain results.
type Report struct {
	Partition *topo.Partition
	// Workers is the resolved worker count the domains were scheduled on.
	Workers int
	// Windows is the number of lookahead windows the coupled run stepped
	// through (0 for a partition-free run).
	Windows int
	// Messages is the total cross-shard digests exchanged.
	Messages int
	// Audits holds per-channel coupling audit totals, in canonical pair
	// order.
	Audits []PairAudit
	// PerDomain holds each domain's local Result (local link ids).
	PerDomain []core.Result
}

// Run executes the scenario sharded by interference domain and returns the
// merged Result plus the execution Report. The scenario's Links must be nil
// (links are rebuilt per domain from the Downlink/Uplink flags), Trace and
// Live are unsupported in sharded mode. It is the one-shot wrapper around
// the steppable decomposition: New, StepWindow until done, Finish.
func Run(s core.Scenario, opt Options) (core.Result, *Report, error) {
	st, err := New(s, opt)
	if err != nil {
		return core.Result{}, nil, err
	}
	for !st.StepWindow() {
	}
	return st.Finish()
}

// Steppable is a sharded run decomposed into explicit window steps — the
// form the run-lifecycle layer (internal/run) drives so a campus-scale run
// can pause, checkpoint and resume between windows instead of executing in
// one opaque call. Construct with New, call StepWindow until it reports
// done, then Finish exactly once. Run is the loop-it-all wrapper and stays
// byte-identical to the pre-steppable implementation.
type Steppable struct {
	s       core.Scenario
	opt     Options
	links   []*topo.Link
	p       *topo.Partition
	insts   []*core.Instance
	tracers []*remapTracer
	metrics []*obs.Metrics
	router  *router
	rep     *Report

	// nextH is the horizon the next step advances to; steps counts
	// completed StepWindow calls (the checkpoint replay coordinate).
	nextH sim.Time
	steps int
	done  bool
}

// New builds the per-domain instances, the cross-shard router and the
// report skeleton — everything Run did before its execute loop.
func New(s core.Scenario, opt Options) (*Steppable, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("shard: Scenario.Net is nil")
	}
	if s.Links != nil {
		return nil, fmt.Errorf("shard: custom link sets are not shardable; use Downlink/Uplink flags")
	}
	if s.Trace != nil {
		return nil, fmt.Errorf("shard: Scenario.Trace (domino event microscope) is single-engine only")
	}
	if s.Live != nil {
		return nil, fmt.Errorf("shard: live metrics publishing is single-engine only")
	}
	if err := s.Net.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid network: %w", err)
	}
	// Normalize exactly like core.NewInstance so window math and merged
	// rates use the same values the instances will.
	if s.PacketBytes == 0 {
		s.PacketBytes = 512
	}
	if s.Rate == 0 {
		s.Rate = phy.Rate12
	}
	if s.Duration == 0 {
		s.Duration = 10 * sim.Second
	}

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

	// Cross-shard channels: one ordered mailbox pair per coupled domain
	// pair, plus each domain's routing fan-out.
	router := newRouter(p)

	st := &Steppable{
		s: s, opt: opt, links: links, p: p,
		insts: insts, tracers: tracers, metrics: metrics,
		router: router, rep: rep,
	}
	// The first horizon: coupled partitions step conservative-lookahead
	// windows; uncoupled ones leap by the step granule (or the whole run).
	if router.pairs() > 0 {
		st.nextH = LookaheadFloor()
	} else if opt.StepGranule > 0 {
		st.nextH = opt.StepGranule
	} else {
		st.nextH = s.Duration
	}
	return st, nil
}

// Steps returns the number of completed StepWindow calls — the replay
// coordinate a checkpoint records.
func (st *Steppable) Steps() int { return st.steps }

// Instances exposes the per-domain cores in domain-index order so the
// run-lifecycle layer can audit kernel and engine state at a window
// boundary. Callers must not step them directly.
func (st *Steppable) Instances() []*core.Instance { return st.insts }

// Messages returns the cross-shard messages routed so far.
func (st *Steppable) Messages() int { return st.router.messages }

// Done reports whether the run has reached its deadline.
func (st *Steppable) Done() bool { return st.done }

// Clock returns the horizon the run has advanced to (0 before any step).
func (st *Steppable) Clock() sim.Time {
	if st.done {
		return st.s.Duration
	}
	if st.steps == 0 {
		return 0
	}
	return st.prevH()
}

// prevH is the horizon the last completed step advanced to.
func (st *Steppable) prevH() sim.Time {
	stride := st.granule()
	h := st.nextH - stride
	if h > st.s.Duration {
		h = st.s.Duration
	}
	return h
}

func (st *Steppable) granule() sim.Time {
	if st.router.pairs() > 0 {
		return LookaheadFloor()
	}
	if st.opt.StepGranule > 0 {
		return st.opt.StepGranule
	}
	return st.s.Duration
}

// StepWindow advances every domain one window and reports whether the run
// is done. Uncoupled partitions run barrier-free — the fast path that makes
// sharding pay — advancing by the step granule per call with no router
// work and no Report.Windows accounting (those count synchronization
// barriers, of which there are none). Coupled partitions execute exactly
// the pre-steppable loop body: deliver staged messages, step to the
// horizon, emit boundary digests, route — so Run's output is byte-identical
// to the original single-loop implementation.
func (st *Steppable) StepWindow() bool {
	if st.done {
		return true
	}
	nd := len(st.p.Domains)
	final := st.nextH >= st.s.Duration
	coupled := st.router.pairs() > 0
	h := st.nextH
	if coupled {
		st.rep.Windows++
	}
	parallel.ForEach(st.opt.Workers, nd, func(d int) {
		if coupled {
			st.router.deliver(d, st.insts[d])
		}
		if final {
			st.insts[d].Step(st.s.Duration)
		} else {
			st.insts[d].StepBefore(h)
			if coupled {
				st.router.emit(d, st.insts[d], h)
			}
		}
	})
	if coupled && !final {
		st.router.route() // single-threaded barrier phase
	}
	st.steps++
	st.nextH += st.granule()
	if final {
		st.done = true
	}
	return st.done
}

// Finish merges the per-domain results into the campus-wide Result and
// emits the merged trace. Call exactly once, after StepWindow reports done.
func (st *Steppable) Finish() (core.Result, *Report, error) {
	if !st.done {
		return core.Result{}, nil, fmt.Errorf("shard: Finish before the run reached its deadline (clock %v of %v)", st.Clock(), st.s.Duration)
	}
	s, rep := st.s, st.rep
	rep.Messages = st.router.messages
	rep.Audits = st.router.audits()

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
	res.PerLinkMbps = coll.PerLinkMbps(s.Duration)
	res.AggregateMbps = coll.AggregateMbps(s.Duration)
	res.MeanDelay = coll.MeanDelay()
	res.MeanDelayPerLink = coll.MeanDelayPerLink()
	var dataRates []float64
	for id := range res.PerLinkMbps {
		if res.DataLinkID[id] {
			res.DataMbps += res.PerLinkMbps[id]
			dataRates = append(dataRates, res.PerLinkMbps[id])
		}
	}
	res.Fairness = stats.JainIndex(dataRates)

	if s.Metrics != nil {
		for d := range metrics {
			s.Metrics.Merge(metrics[d])
		}
		s.Metrics.Counter("shard.domains").Add(int64(len(p.Domains)))
		s.Metrics.Counter("shard.windows").Add(int64(rep.Windows))
		s.Metrics.Counter("shard.messages").Add(int64(rep.Messages))
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
	start.Aux = s.SchemeName
	if start.Aux == "" {
		start.Aux = s.Scheme.String()
	}
	if d, ok := scheme.Lookup(start.Aux); ok {
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

// sortAudits is a tiny helper keeping Report.Audits canonical.
func sortAudits(a []PairAudit) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].A != a[j].A {
			return a[i].A < a[j].A
		}
		return a[i].B < a[j].B
	})
}
