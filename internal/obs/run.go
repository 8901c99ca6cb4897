package obs

import (
	"sort"
	"strconv"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// kernelSampleEvery decimates KindKernel records: one sample per this many
// fired events keeps traces bounded while still profiling queue growth.
const kernelSampleEvery = 1024

// queueSampleEvery decimates KindQueue records per link.
const queueSampleEvery = 64

// Run wires one simulation run's tracer and metrics across the layers: it
// implements phy.Probe (medium activity), mac.Events (delivery outcomes) and
// the kernel's OnEvent hook, and owns the airtime accounting. Either of
// tracer and metrics may be nil; core only installs the hooks at all when
// observability was requested, so disabled runs pay nothing beyond the
// hooks' own nil checks.
type Run struct {
	tracer  Tracer
	metrics *Metrics
	air     Airtime
	spans   *Spans // span-id allocator; nil when spans are off

	firedBySrc [sim.NumSources]int64
	collisions int64

	// metrics shortcuts, resolved once so hot paths skip the map lookups
	delay     *LogHist // enqueue → delivery, microseconds
	delivered *Counter
	dropped   *Counter
	txByKind  [NumBuckets]*Counter
	qdelay    *LogHist // enqueue → first dequeue, microseconds
	hol       *LogHist // first dequeue → delivery (head-of-line), microseconds
	aoiPeak   *LogHist // per-client peak age-of-information at delivery, µs

	// aoiLast is each client's last delivered update's generation (enqueue)
	// time; aoiGauge caches the per-client age gauges so delivery stays off
	// the name-formatting path after a client's first packet.
	aoiLast  map[int]sim.Time
	aoiGauge map[int]*Gauge
	// clientOf maps a link ID to the client node at its far end (BindLinks).
	clientOf []int

	queueSeen  map[int]int // per-link samples observed, for decimation
	queueDepth *Gauge      // high-water MAC backlog across links

	now     func() sim.Time // simulation clock, for hooks with no timestamp of their own
	mapNode func(int) int   // node-id mapping for metric names, nil = identity
}

// NewRun returns a Run emitting to tr (may be nil) and m (may be nil).
// Causal spans are on whenever a tracer is installed.
func NewRun(tr Tracer, m *Metrics) *Run {
	r := &Run{tracer: tr, metrics: m, queueSeen: map[int]int{}}
	if tr != nil {
		r.spans = NewSpans()
	}
	if m != nil {
		r.delay = m.LogHist("mac.delay_us")
		r.delivered = m.Counter("mac.delivered")
		r.dropped = m.Counter("mac.dropped")
		for b := BucketData; b < BucketOverlap; b++ {
			r.txByKind[b] = m.Counter("phy.tx." + b.String())
		}
		r.queueDepth = m.Gauge("mac.queue_max")
		r.qdelay = m.LogHist("mac.qdelay_us")
		r.hol = m.LogHist("mac.hol_us")
		r.aoiPeak = m.LogHist("aoi.peak_us")
		r.aoiLast = map[int]sim.Time{}
		r.aoiGauge = map[int]*Gauge{}
	}
	return r
}

// Tracer returns the run's tracer (nil when tracing is off).
func (r *Run) Tracer() Tracer { return r.tracer }

// Metrics returns the run's metrics registry (nil when metrics are off).
func (r *Run) Metrics() *Metrics { return r.metrics }

// Spans returns the run's span allocator, nil when spans are off. Engines
// keep the returned pointer and guard every allocation with one nil check —
// the contract that keeps the disabled path at zero cost.
func (r *Run) Spans() *Spans { return r.spans }

// BindClock attaches the simulation clock, used to timestamp records emitted
// from hooks that do not carry their own time (queue-depth samples). It
// returns r for chaining.
func (r *Run) BindClock(now func() sim.Time) *Run {
	r.now = now
	return r
}

// BindLinks attaches the run's links, so per-client metrics can name the
// client a delivered packet's link serves. Runs with metrics must bind their
// links before any delivery. It returns r for chaining.
func (r *Run) BindLinks(links []*topo.Link) *Run {
	r.clientOf = make([]int, len(links))
	for _, l := range links {
		client := l.Receiver
		if !l.Downlink {
			client = l.Sender
		}
		r.clientOf[l.ID] = int(client)
	}
	return r
}

// SetNodeMapper installs an id mapping applied when metric names embed a
// node id (the per-client AoI gauges). Sharded runs pass the domain's
// local→global node map so a merged registry names every client by its
// global id; unsharded runs leave it nil (identity). Returns r for chaining.
func (r *Run) SetNodeMapper(f func(int) int) *Run {
	r.mapNode = f
	return r
}

// SetSpanBase restarts the span allocator at base (first id base+1).
// Sharded runs give each domain a disjoint, domain-indexed base so span ids
// in the merged trace are unique and independent of the shard count. No-op
// when spans are disabled; must run before engine wiring.
func (r *Run) SetSpanBase(base int64) *Run {
	if r.spans != nil {
		r.spans = NewSpansAt(base)
	}
	return r
}

// Start emits the run-open record delimiting this run in merged traces.
func (r *Run) Start(scheme string, seed int64) {
	if r.tracer != nil {
		rec := Rec(0, KindRunStart)
		rec.Value = seed
		rec.Aux = scheme
		r.tracer.Emit(rec)
	}
}

// TxStart implements phy.Probe.
func (r *Run) TxStart(f *phy.Frame, now sim.Time) {
	b := BucketOf(f.Kind)
	r.air.Start(b, now)
	if c := r.txByKind[b]; c != nil {
		c.Inc()
	}
	if r.tracer != nil {
		rec := Rec(now, KindTxStart)
		rec.Node = int(f.Src)
		rec.Dur = f.AirTime()
		rec.Span = f.ObsSpan
		rec.Aux = f.Kind.String()
		r.tracer.Emit(rec)
	}
}

// TxEnd implements phy.Probe.
func (r *Run) TxEnd(f *phy.Frame, now sim.Time) {
	r.air.End(BucketOf(f.Kind), now)
	if r.tracer != nil {
		rec := Rec(now, KindTxEnd)
		rec.Node = int(f.Src)
		rec.Span = f.ObsSpan
		rec.Aux = f.Kind.String()
		r.tracer.Emit(rec)
	}
}

// RxOutcome implements phy.Probe. Only addressed, non-signature failures
// count as collisions: a bystander failing to decode a frame not meant for
// it is normal spatial reuse, and missed signature triggers are reported
// semantically by the DOMINO engines (KindTriggerMiss).
func (r *Run) RxOutcome(f *phy.Frame, at phy.NodeID, ok bool, now sim.Time) {
	if ok || f.Kind == phy.Signature || f.Dst != at {
		return
	}
	r.collisions++
	if r.tracer != nil {
		rec := Rec(now, KindCollision)
		rec.Node = int(at)
		rec.Parent = f.ObsSpan
		rec.Aux = f.Kind.String()
		r.tracer.Emit(rec)
	}
}

// PacketQueued opens a packet's lifecycle: engines call it after a
// successful MAC enqueue, on the queued copy. It assigns the packet its
// causal span (when spans are on) and emits the pkt_enqueue record that
// roots the lifecycle tree.
func (r *Run) PacketQueued(p *mac.Packet, now sim.Time) {
	if r.spans != nil {
		p.Span = r.spans.Next()
	}
	if r.tracer != nil {
		rec := Rec(now, KindPktEnqueue)
		rec.Link = int(p.Link)
		rec.Span = p.Span
		rec.Value = int64(p.Bytes)
		r.tracer.Emit(rec)
	}
}

// PacketDequeued stamps the packet's first exit from its MAC queue (retries
// requeue and re-pop; only the first service counts) and records queueing
// delay. Engines call it right after every queue Pop they intend to serve,
// on the copy they keep in flight.
func (r *Run) PacketDequeued(p *mac.Packet, now sim.Time) {
	if p.Dequeued != 0 {
		return
	}
	p.Dequeued = now
	if r.qdelay != nil {
		r.qdelay.Record(int64(now-p.Enqueued) / 1000)
	}
}

// Delivered implements mac.Events: delivery latency, head-of-line latency,
// per-client age-of-information, and the pkt_deliver record closing the
// packet's span (parented to the transmission that carried it).
func (r *Run) Delivered(p *mac.Packet, now sim.Time) {
	if r.delivered != nil {
		r.delivered.Inc()
		r.delay.Record(int64(now-p.Enqueued) / 1000)
		if p.Dequeued != 0 {
			r.hol.Record(int64(now-p.Dequeued) / 1000)
		}
		r.noteAoI(p, now)
	}
	if r.tracer != nil {
		rec := Rec(now, KindPktDeliver)
		rec.Link = int(p.Link)
		rec.Span = p.Span
		rec.Parent = p.TxSpan
		rec.Dur = now - p.Enqueued
		if p.Dequeued != 0 {
			rec.Value = int64(p.Dequeued-p.Enqueued) / 1000
			rec.Extra = int64(now-p.Dequeued) / 1000
		}
		r.tracer.Emit(rec)
	}
}

// noteAoI updates the client's age-of-information at a delivery: the peak
// age just before this update (now minus the previous update's generation
// time, the standard sawtooth peak) goes into the aoi.peak_us histogram,
// and the client's gauge holds the post-delivery age (this packet's own
// generation-to-delivery latency).
func (r *Run) noteAoI(p *mac.Packet, now sim.Time) {
	client := r.clientOf[p.Link]
	if prev, ok := r.aoiLast[client]; ok {
		r.aoiPeak.Record(int64(now-prev) / 1000)
	}
	r.aoiLast[client] = p.Enqueued
	g := r.aoiGauge[client]
	if g == nil {
		name := client
		if r.mapNode != nil {
			name = r.mapNode(client)
		}
		g = r.metrics.Gauge("aoi.client." + strconv.Itoa(name) + "_us")
		r.aoiGauge[client] = g
	}
	g.Set((now - p.Enqueued).Microseconds())
}

// Dropped implements mac.Events.
func (r *Run) Dropped(p *mac.Packet, now sim.Time) {
	if r.dropped != nil {
		r.dropped.Inc()
	}
	if r.tracer != nil {
		rec := Rec(now, KindDrop)
		rec.Link = int(p.Link)
		rec.Span = p.Span
		rec.Value = int64(p.Retries)
		r.tracer.Emit(rec)
	}
}

// KernelHook returns the closure to install via sim.Kernel.OnEvent: it
// tallies fired events per source and emits a decimated event-loop sample.
func (r *Run) KernelHook() func(sim.EventInfo) {
	return func(info sim.EventInfo) {
		r.firedBySrc[info.Source]++
		if r.tracer != nil && info.Fired%kernelSampleEvery == 0 {
			rec := Rec(info.Now, KindKernel)
			rec.Value = int64(info.Pending)
			rec.Extra = int64(info.Fired)
			r.tracer.Emit(rec)
		}
	}
}

// QueueSampler returns the per-link depth observer engines install on their
// MAC queues (mac.Queue.OnDepth via the engines' queue-sampling hooks).
// Samples are decimated per link; the high-water mark feeds mac.queue_max.
func (r *Run) QueueSampler() func(link, depth int) {
	return func(link, depth int) {
		if r.queueDepth != nil {
			r.queueDepth.SetMax(float64(depth))
		}
		if r.tracer == nil {
			return
		}
		n := r.queueSeen[link]
		r.queueSeen[link] = n + 1
		if n%queueSampleEvery != 0 {
			return
		}
		at := sim.Time(0)
		if r.now != nil {
			at = r.now()
		}
		rec := Rec(at, KindQueue)
		rec.Link = link
		rec.Value = int64(depth)
		r.tracer.Emit(rec)
	}
}

// Finish closes the airtime timeline at end, folds the run totals into the
// metrics registry, emits the run-close record, and returns the breakdown.
func (r *Run) Finish(end sim.Time) Breakdown {
	b := r.air.Breakdown(end)
	b.Collisions = r.collisions
	if r.metrics != nil {
		for bk := BucketIdle; bk < NumBuckets; bk++ {
			r.metrics.Gauge("airtime." + bk.String() + "_frac").Set(b.Frac(bk))
		}
		r.metrics.Counter("phy.collisions").Add(r.collisions)
		for s := sim.Source(0); s < sim.NumSources; s++ {
			if r.firedBySrc[s] > 0 {
				r.metrics.Counter("kernel.fired." + s.String()).Add(r.firedBySrc[s])
			}
		}
	}
	if r.tracer != nil {
		// One summary record per log-scale histogram (sorted so traces stay
		// deterministic), then the run-close record.
		if r.metrics != nil && len(r.metrics.lhists) > 0 {
			names := make([]string, 0, len(r.metrics.lhists))
			for name := range r.metrics.lhists {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				h := r.metrics.lhists[name]
				rec := Rec(end, KindMetric)
				rec.Aux = name
				rec.Value = h.N()
				rec.Extra = int64(h.Quantile(0.99))
				r.tracer.Emit(rec)
			}
		}
		rec := Rec(end, KindRunEnd)
		rec.Value = r.collisions
		r.tracer.Emit(rec)
	}
	return b
}
