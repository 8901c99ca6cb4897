// Package core assembles complete experiment scenarios: a topology, a
// channel-access scheme looked up in the pluggable registry
// (internal/scheme), a traffic pattern, and a measurement window — and runs
// them to a Result. It is the high-level API the examples, the experiment
// harness and the CLIs build on; the paper's individual mechanisms live in
// the packages it wires together.
//
// Scenarios come in two forms: the programmatic Scenario struct
// (RunScenario) and the declarative spec.Spec (RunE), which is what the
// -spec CLI mode and the example spec files use. Both run through the same
// registry pipeline, so a scheme registered by any package — including a
// fifth one this package has never heard of — runs identically.
package core

import (
	"fmt"

	"repro/internal/centaur"
	"repro/internal/dcf"
	"repro/internal/domino"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strict"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Scheme selects the channel-access protocol under test by its registry
// name (internal/scheme; lookup is case-insensitive, aliases included), so
// an externally registered scheme runs through this package unchanged.
type Scheme string

// The built-in schemes, named as in the paper's figures.
const (
	// DCF is the 802.11 distributed baseline.
	DCF Scheme = "DCF"
	// CENTAUR is the hybrid scheduled-downlink / DCF-uplink baseline.
	CENTAUR Scheme = "CENTAUR"
	// DOMINO is the paper's relative-scheduling system.
	DOMINO Scheme = "DOMINO"
	// Omniscient is the perfectly synchronized, perfect-knowledge upper
	// bound of Fig 2.
	Omniscient Scheme = "Omniscient"
)

// String returns the scheme's registry name.
func (s Scheme) String() string { return string(s) }

// TrafficKind selects the workload.
type TrafficKind int

const (
	// Saturated keeps every selected link's queue backlogged.
	Saturated TrafficKind = iota
	// UDPCBR offers constant-bit-rate datagrams.
	UDPCBR
	// TCP runs the Reno model per link, ACKs riding the reverse link.
	TCP
)

// Scenario describes one run.
type Scenario struct {
	// Net is the topology. Links are built from it unless Links is set.
	Net *topo.Network
	// Links overrides the link set (nil: build from Downlink/Uplink flags).
	Links []*topo.Link
	// Downlink/Uplink select which directions exist when Links is nil.
	Downlink, Uplink bool

	// Scheme is required: an empty or unregistered name is an error.
	Scheme Scheme
	Seed   int64
	// Duration is the simulated time (measurement ends here).
	Duration sim.Time
	// Warmup excludes the initial transient from the statistics.
	Warmup sim.Time

	Traffic TrafficKind
	// DownMbps/UpMbps are offered loads per link for UDPCBR and TCP.
	DownMbps, UpMbps float64
	// PacketBytes is the datagram/segment size (default 512).
	PacketBytes int

	// PhyConfig overrides the medium parameters (zero value: defaults).
	PhyConfig *phy.Config
	// Rate is the PHY data rate (default 12 Mbps).
	Rate phy.Rate

	// Tune hooks mutate scheme configs before the engine is built. The
	// typed hooks fire only when their scheme runs; Tune fires for every
	// scheme and receives the pointer Descriptor.DefaultConfig returned.
	TuneDomino func(*domino.Config)
	TuneDCF    func(*dcf.Config)
	Tune       func(cfg any) error

	// Tracer, when non-nil, receives the run's typed observability records
	// (obs package): kernel samples, PHY activity, scheme slot timelines,
	// queue depths. Metrics, when non-nil, accumulates the run's counters
	// and histograms. Leaving both nil installs no hooks at all — the
	// simulation hot paths pay only their own nil checks.
	Tracer  obs.Tracer
	Metrics *obs.Metrics

	// ObsSetup, when non-nil, adjusts the freshly created obs.Run before
	// any engine wiring and before the run-start record — the hook sharded
	// runs use to install per-domain span bases and node-id mappers. Unused
	// (and never called) when neither Tracer nor Metrics is set.
	ObsSetup func(*obs.Run)
}

// WithDefaults returns the scenario with its zero PacketBytes, Rate and
// Duration set to 512 B, 12 Mbps and 10 s. NewInstance applies it; drivers
// that need the normalized values before building (the shard runner's
// step horizons) call it themselves.
func (s Scenario) WithDefaults() Scenario {
	if s.PacketBytes == 0 {
		s.PacketBytes = 512
	}
	if s.Rate == 0 {
		s.Rate = phy.Rate12
	}
	if s.Duration == 0 {
		s.Duration = 10 * sim.Second
	}
	return s
}

// Result carries a run's measurements.
type Result struct {
	Links         []*topo.Link
	PerLinkMbps   []float64
	AggregateMbps float64
	// MeanDelay is the packet-weighted mean delivery delay; MeanDelayPerLink
	// weights links equally (the paper's Fig 12 delay metric).
	MeanDelay        sim.Time
	MeanDelayPerLink sim.Time
	Fairness         float64

	// DataMbps sums goodput over the DataLinkID links, so TCP ACK links
	// are excluded.
	DataMbps float64

	// SkippedLinks lists links the traffic layer offered no load to (a
	// UDPCBR direction with rate ≤ 0): the run measured fewer flows than
	// the link set suggests, and callers should say so instead of hiding
	// it. spec.Validate rejects such specs up front.
	SkippedLinks []*topo.Link

	// UnpolledClients lists clients DOMINO's poller could not fit into its
	// layout (more clients on one AP than the poller's MaxClients — the
	// paper's ROP caps at 24): they run but are never polled, so the server
	// only learns their backlog by piggyback. Callers should report them
	// like SkippedLinks instead of hiding the truncation.
	UnpolledClients []phy.NodeID

	// Scheme internals for deeper inspection (nil unless that scheme ran).
	Domino    *domino.Engine
	Dcf       *dcf.Engine
	Centaur   *centaur.Engine
	Omni      *strict.Omniscient
	Collector *stats.Collector
	Misalign  *stats.Misalignment
	TCPFlows  []*traffic.TCPFlow
	// DataLinkID flags the link IDs that carried offered load (data
	// directions; TCP ACK links are excluded). DataMbps and Fairness are
	// computed over exactly these links — exported so result mergers
	// (internal/shard) can recompute the aggregates over a combined link
	// set.
	DataLinkID map[int]bool

	// Breakdown partitions the run's airtime (idle/data/ack/…/overlap sums
	// to Duration exactly); Snapshot freezes the metrics registry. Both are
	// nil unless the scenario set Tracer or Metrics.
	Breakdown *obs.Breakdown
	Snapshot  obs.Snapshot
}

// Instance is a fully built, ready-to-run scenario: topology validated,
// engine constructed through the scheme registry, traffic sources and the
// engine's start events primed on the kernel, observability wired. It is
// the decomposition RunScenario always performed, now exported so drivers
// other than "run to the end in one call" exist: the shard runner
// (internal/shard) builds one Instance per interference domain and advances
// them in bounded-horizon steps.
//
// Drive the kernel via Step (or Kernel directly), then call
// Finish exactly once after the clock reaches S.Duration.
type Instance struct {
	// S is the normalized scenario (defaults applied).
	S Scenario
	// Kernel is the instance's event kernel; its clock starts at zero with
	// the engine start and traffic arrival events queued.
	Kernel *sim.Kernel
	// Obs is the observability run, nil unless Tracer or Metrics was set.
	Obs *obs.Run

	hub      *mac.Hub
	res      Result
	finished bool
}

// RunScenario executes the scenario through the scheme registry and returns
// its measurements, or a descriptive error for invalid input.
func RunScenario(s Scenario) (Result, error) {
	inst, err := NewInstance(s)
	if err != nil {
		return Result{}, err
	}
	inst.Step(inst.S.Duration)
	return inst.Finish(), nil
}

// NewInstance builds a scenario into a runnable Instance, or returns a nil
// instance and a descriptive error for invalid input.
func NewInstance(s Scenario) (*Instance, error) {
	if s.Net == nil {
		return nil, fmt.Errorf("invalid network: Scenario.Net is nil")
	}
	if err := s.Net.Validate(); err != nil {
		return nil, fmt.Errorf("invalid network: %w", err)
	}
	s = s.WithDefaults()
	if s.Warmup > s.Duration {
		return nil, fmt.Errorf("warmup %v exceeds duration %v", s.Warmup, s.Duration)
	}
	d, err := scheme.Registry.Resolve(string(s.Scheme))
	if err != nil {
		return nil, err
	}
	links := s.Links
	if links == nil {
		links = s.Net.BuildLinks(s.Downlink, s.Uplink)
	}
	pcfg := phy.DefaultConfig()
	if s.PhyConfig != nil {
		pcfg = *s.PhyConfig
	}
	var g *topo.ConflictGraph
	if d.NeedsConflictGraph {
		g = topo.NewConflictGraph(s.Net, links, pcfg, s.Rate)
	}
	k := sim.New(s.Seed)
	medium := phy.NewMedium(k, s.Net.RSS, pcfg)
	hub := &mac.Hub{}

	res := Result{Links: links, DataLinkID: map[int]bool{}}

	// Observability: one obs.Run spans the kernel, the medium and the MAC
	// outcome stream; engines implementing scheme.Observable add their own
	// typed records below.
	var orun *obs.Run
	if s.Tracer != nil || s.Metrics != nil {
		orun = obs.NewRun(s.Tracer, s.Metrics).BindClock(k.Now).BindLinks(links)
		if s.ObsSetup != nil {
			s.ObsSetup(orun)
		}
		k.OnEvent(orun.KernelHook())
		medium.SetProbe(orun)
		hub.Add(orun)
		orun.Start(d.Name, s.Seed)
	}

	// The uniform build pipeline every scheme goes through: default config
	// with the generic knobs applied, tuning hooks, Build, obs wiring.
	params := scheme.Params{Rate: s.Rate, PacketBytes: s.PacketBytes}
	cfg := d.DefaultConfig(params)
	switch c := cfg.(type) {
	case *dcf.Config:
		if s.TuneDCF != nil {
			s.TuneDCF(c)
		}
	case *domino.Config:
		if s.TuneDomino != nil {
			s.TuneDomino(c)
		}
	}
	if s.Tune != nil {
		if err := s.Tune(cfg); err != nil {
			return nil, fmt.Errorf("scheme %s: tune: %w", d.Name, err)
		}
	}
	engine, err := d.Build(scheme.BuildContext{
		Kernel: k, Medium: medium, Links: links, Graph: g, Events: hub,
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("scheme %s: %w", d.Name, err)
	}
	if orun != nil {
		if o, ok := engine.(scheme.Observable); ok {
			o.WireObs(orun)
		}
	}

	// Typed result fields and scheme-specific hooks for the built-in
	// engines; externally registered schemes simply skip this.
	switch e := engine.(type) {
	case *dcf.Engine:
		res.Dcf = e
	case *centaur.Engine:
		res.Centaur = e
	case *domino.Engine:
		res.Domino = e
		res.Misalign = e.Misalign
		res.UnpolledClients = e.UnpolledClients
	case *strict.Omniscient:
		res.Omni = e
	}

	coll := stats.NewCollector(len(links), s.Warmup)
	hub.Add(coll)
	res.Collector = coll

	// Traffic.
	switch s.Traffic {
	case Saturated:
		sources := make(saturatedSources, len(links))
		hub.Add(sources)
		for _, l := range links {
			res.DataLinkID[l.ID] = true
			sources[l.ID] = traffic.NewSaturated(k, engine, l, s.PacketBytes, 8)
			sources[l.ID].Start()
		}
	case UDPCBR:
		for _, l := range links {
			rate := s.UpMbps
			if l.Downlink {
				rate = s.DownMbps
			}
			if rate <= 0 {
				res.SkippedLinks = append(res.SkippedLinks, l)
				continue
			}
			res.DataLinkID[l.ID] = true
			traffic.NewUDP(k, engine, l, rate, s.PacketBytes).Start()
		}
	case TCP:
		// One flow per direction per AP-client pair, ACKs on the reverse
		// link. Both directions must exist in the link set.
		byPair := map[[2]phy.NodeID]map[bool]*topo.Link{}
		for _, l := range links {
			key := [2]phy.NodeID{l.AP, otherEnd(l)}
			if byPair[key] == nil {
				byPair[key] = map[bool]*topo.Link{}
			}
			byPair[key][l.Downlink] = l
		}
		id := 0
		for _, pair := range orderedPairs(byPair) {
			dirs := byPair[pair]
			down, up := dirs[true], dirs[false]
			if down == nil || up == nil {
				continue
			}
			if s.DownMbps != 0 {
				f := traffic.NewTCPFlow(k, engine, id, down, up, traffic.DefaultTCPConfig(s.DownMbps))
				res.DataLinkID[down.ID] = true
				res.TCPFlows = append(res.TCPFlows, f)
				f.Start()
				id++
			}
			if s.UpMbps != 0 {
				f := traffic.NewTCPFlow(k, engine, id, up, down, traffic.DefaultTCPConfig(s.UpMbps))
				res.DataLinkID[up.ID] = true
				res.TCPFlows = append(res.TCPFlows, f)
				f.Start()
				id++
			}
		}
		hub.Add(tcpFlowSources(res.TCPFlows))
	default:
		return nil, fmt.Errorf("unknown traffic kind %d", int(s.Traffic))
	}

	engine.Start()

	return &Instance{S: s, Kernel: k, Obs: orun, hub: hub, res: res}, nil
}

// saturatedSources is the hub sink of a saturated run's sources, indexed by
// link ID: it hands each MAC outcome to the source of the packet's link, the
// only one that acts on it, instead of the hub calling every source.
type saturatedSources []*traffic.Saturated

// Delivered implements mac.Events.
func (s saturatedSources) Delivered(p *mac.Packet, now sim.Time) { s[p.Link].Delivered(p, now) }

// Dropped implements mac.Events.
func (s saturatedSources) Dropped(p *mac.Packet, now sim.Time) { s[p.Link].Dropped(p, now) }

// tcpFlowSources is the hub sink of a TCP run's flows, indexed by flow ID: it
// hands each MAC outcome to the flow that owns the packet (p.FlowID).
type tcpFlowSources []*traffic.TCPFlow

// Delivered implements mac.Events.
func (f tcpFlowSources) Delivered(p *mac.Packet, now sim.Time) { f[p.FlowID].Delivered(p, now) }

// Dropped implements mac.Events.
func (f tcpFlowSources) Dropped(p *mac.Packet, now sim.Time) { f[p.FlowID].Dropped(p, now) }

// Step executes events up to and including t and returns the clock
// (sim.Kernel.RunUntil).
func (i *Instance) Step(t sim.Time) sim.Time { return i.Kernel.RunUntil(t) }

// Finish closes the observability run and computes the scenario's
// measurements. Call exactly once, after the kernel has been driven to
// S.Duration; repeated calls return the cached Result.
func (i *Instance) Finish() Result {
	if i.finished {
		return i.res
	}
	i.finished = true
	s := i.S
	res := i.res
	if i.Obs != nil {
		bd := i.Obs.Finish(s.Duration)
		res.Breakdown = &bd
		if s.Metrics != nil {
			res.Snapshot = s.Metrics.Snapshot()
		}
	}
	res.Summarize(s.Duration)
	i.res = res
	return res
}

// Summarize computes the throughput, delay and fairness aggregates from
// r.Collector over a run of length d; Finish and the sharded runner's merge
// both call it.
func (r *Result) Summarize(d sim.Time) {
	coll := r.Collector
	r.PerLinkMbps = coll.PerLinkMbps(d)
	r.AggregateMbps = coll.AggregateMbps(d)
	r.MeanDelay = coll.MeanDelay()
	r.MeanDelayPerLink = coll.MeanDelayPerLink()
	var dataRates []float64
	for id := range r.PerLinkMbps {
		if r.DataLinkID[id] {
			r.DataMbps += r.PerLinkMbps[id]
			dataRates = append(dataRates, r.PerLinkMbps[id])
		}
	}
	r.Fairness = stats.JainIndex(dataRates)
}

func otherEnd(l *topo.Link) phy.NodeID {
	if l.Downlink {
		return l.Receiver
	}
	return l.Sender
}

// orderedPairs returns map keys in deterministic order.
func orderedPairs(m map[[2]phy.NodeID]map[bool]*topo.Link) [][2]phy.NodeID {
	var keys [][2]phy.NodeID
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func less(a, b [2]phy.NodeID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
