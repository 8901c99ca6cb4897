// Package traffic generates the workloads of the evaluation: constant-bit-rate
// UDP, saturated (always-backlogged) sources, and a Reno-style TCP model whose
// acknowledgements travel as MAC packets on the reverse link — the detail that
// caps DOMINO's TCP gain in the paper (§4.2.3: a TCP ACK occupies a whole
// slot).
package traffic

import (
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
)

// UDP is a constant-bit-rate source on one link.
type UDP struct {
	k        *sim.Kernel
	engine   mac.Engine
	link     *topo.Link
	rateMbps float64
	bytes    int
	seq      uint32
	// emitFn is u.emit bound once, so scheduling an arrival allocates no
	// method value.
	emitFn func()
}

// NewUDP creates a CBR source pushing bytes-sized packets at rateMbps on the
// link. A non-positive rate produces no traffic.
func NewUDP(k *sim.Kernel, e mac.Engine, link *topo.Link, rateMbps float64, bytes int) *UDP {
	u := &UDP{k: k, engine: e, link: link, rateMbps: rateMbps, bytes: bytes}
	u.emitFn = u.emit
	return u
}

// Start schedules the first arrival at a random phase within one interval so
// sources across links do not arrive in lock-step.
func (u *UDP) Start() {
	if u.rateMbps <= 0 {
		return
	}
	interval := u.interval()
	phase := sim.Time(u.k.Rand().Int63n(int64(interval) + 1))
	u.k.After(phase, u.emitFn).SetSource(sim.SrcTraffic)
}

func (u *UDP) interval() sim.Time {
	return sim.Time(float64(u.bytes*8) / (u.rateMbps * 1e6) * 1e9)
}

func (u *UDP) emit() {
	u.engine.Enqueue(mac.Packet{
		Link:     int32(u.link.ID),
		Bytes:    int32(u.bytes),
		Enqueued: u.k.Now(),
		Seq:      u.seq,
		FlowID:   -1,
	})
	u.seq++
	u.k.After(u.interval(), u.emitFn)
}

// Saturated keeps a link's MAC queue topped up to a target depth: it refills
// one packet for every delivery or drop on its link. Add it to the engine's
// event mux so it observes outcomes.
type Saturated struct {
	k      *sim.Kernel
	engine mac.Engine
	link   *topo.Link
	bytes  int
	depth  int
	seq    uint32
	// pushing is set while push enqueues: a packet tail-dropped on arrival
	// (a queue capped below depth) is not replaced, or that would recurse.
	pushing bool
}

// NewSaturated creates an always-backlogged source holding depth packets
// of the given size in the link's queue.
func NewSaturated(k *sim.Kernel, e mac.Engine, link *topo.Link, bytes, depth int) *Saturated {
	return &Saturated{k: k, engine: e, link: link, bytes: bytes, depth: depth}
}

// Start fills the queue to the target depth.
func (s *Saturated) Start() {
	for i := 0; i < s.depth; i++ {
		s.push()
	}
}

func (s *Saturated) push() {
	s.pushing = true
	defer func() { s.pushing = false }()
	s.engine.Enqueue(mac.Packet{
		Link:     int32(s.link.ID),
		Bytes:    int32(s.bytes),
		Enqueued: s.k.Now(),
		Seq:      s.seq,
		FlowID:   -1,
	})
	s.seq++
}

// Delivered implements mac.Events: one out, one in.
func (s *Saturated) Delivered(p *mac.Packet, _ sim.Time) {
	if int(p.Link) == s.link.ID {
		s.push()
	}
}

// Dropped implements mac.Events.
func (s *Saturated) Dropped(p *mac.Packet, _ sim.Time) {
	if int(p.Link) == s.link.ID && !s.pushing {
		s.push()
	}
}
