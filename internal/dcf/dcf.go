// Package dcf implements the 802.11 Distributed Coordination Function — the
// paper's primary baseline: CSMA/CA with binary exponential backoff, DIFS
// deference, SIFS-separated ACKs and retransmission up to the retry limit.
// Hidden- and exposed-terminal behaviour is not coded here; it emerges from
// carrier sensing against the phy medium.
//
// Its node is the repository's one 802.11 contention station: CENTAUR runs
// its uplinks on the same stations and hands them its scheduled downlinks as
// fixed-backoff sends (Hold, SendFixed).
package dcf

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config collects DCF timing and contention parameters. Defaults follow
// 802.11g; the USRP prototype experiment (paper Table 2) inflates SlotTime
// and SIFS to model GNURadio host latency. Rate comes from the scenario
// (scheme.Params), not from scheme_config.
type Config struct {
	SlotTime sim.Time `domain:"1us..10ms"`
	SIFS     sim.Time `domain:"1us..10ms"`
	DIFS     sim.Time `domain:"1us..10ms"`
	CWMin    int      `domain:"0..1023"`
	CWMax    int      `domain:"0..1023"`
	Rate     phy.Rate `json:"-"`
	AckRate  phy.Rate `domain:"6|9|12|18|24|36|48|54"`
	QueueCap int      `domain:"1..100000"`
	// ExtraFrameTime inflates every data frame's air time (USRP host
	// latency); zero for real 802.11 hardware.
	ExtraFrameTime sim.Time `domain:"0..100ms"`
}

// DefaultConfig returns 802.11g parameters at the evaluation's 12 Mbps PHY
// rate.
func DefaultConfig() Config {
	return Config{
		SlotTime: phy.SlotTime,
		SIFS:     phy.SIFS,
		DIFS:     phy.DIFS,
		CWMin:    15,
		CWMax:    1023,
		Rate:     phy.Rate12,
		AckRate:  phy.Rate12,
		QueueCap: mac.DefaultQueueCap,
	}
}

// Engine runs DCF over a medium and a set of links. Construct with New, wire
// traffic in with Enqueue, call Start once.
type Engine struct {
	k      *sim.Kernel
	medium *phy.Medium
	events mac.Events
	cfg    Config

	links   []*topo.Link // by link ID
	senders []*node      // by link ID
	queues  []*mac.Queue // by link ID
	intake  mac.Intake
	nodes   map[phy.NodeID]*node
	// out holds a finished packet while Events hears of it: a sink that
	// re-enters Enqueue may start the station's next send, which reuses
	// the station's pending slot.
	out mac.Packet

	// Counters mirrored from the paper's diagnostics (§4.2.3 reports ACK
	// timeout counts).
	AckTimeouts int
	Drops       int

	// Obs, when non-nil, receives backoff draws and ACK timeouts. Set it
	// before Start; nil (the default) costs one branch per emission site.
	Obs obs.Tracer
	// Life, when non-nil, is the per-run packet-lifecycle sink (enqueue /
	// dequeue stamps and span assignment). WireObs sets it along with Obs.
	Life *obs.Run
}

// EnableQueueSampling installs fn as the depth observer on every link queue,
// tagged with the link id (the observability layer's queue sampler).
func (e *Engine) EnableQueueSampling(fn func(link, depth int)) {
	for id, q := range e.queues {
		id := id
		q.OnDepth = func(depth int) { fn(id, depth) }
	}
}

type state int

const (
	stIdle state = iota
	stBackoff
	stTx
	stWaitAck
)

type node struct {
	e     *Engine
	id    phy.NodeID
	links []*topo.Link // links this node sends on

	st state
	// pending is the packet in service, valid while busy is set.
	pending mac.Packet
	busy    bool
	// The pending send's own rules. span is the causal span its frames
	// carry. fixed >= 0 marks a scheduled send (SendFixed): its backoff is
	// always fixed slots, restarts whole when the medium turns busy and never
	// widens CW; -1 is an ordinary contended send. done, when non-nil, runs
	// once the send is delivered or dropped.
	span  int64
	fixed int
	done  func()

	cw        int
	counter   int
	rr        int
	fireEv    sim.Event
	fireBase  sim.Time // when DIFS+counting began
	busySince sim.Time // when carrier sensing last turned busy
	nav       sim.Time // virtual carrier sense (protects overheard ACKs)
	timeoutEv sim.Event

	// The node's timers, bound once in New so scheduling one allocates no
	// method value or closure.
	fireFn, tryScheduleFireFn, txDoneFn, ackTimeoutFn func()
}

// setNAV reserves the medium until t (802.11 virtual carrier sensing).
func (n *node) setNAV(t sim.Time) {
	if t <= n.nav {
		return
	}
	n.nav = t
	n.e.k.At(t, n.tryScheduleFireFn)
}

// Hold takes l out of its sender's round-robin contention: packets queued on
// it wait until the owner hands one to the station with SendFixed. Call it
// before any traffic is enqueued.
func (e *Engine) Hold(l *topo.Link) {
	n := e.nodes[l.Sender]
	for i, x := range n.links {
		if x == l {
			n.links = append(n.links[:i], n.links[i+1:]...)
			return
		}
	}
}

// SendFixed hands the head of l's queue to l's sender as a scheduled send:
// after DIFS it counts down exactly slots backoff slots, restarting the
// whole count whenever the medium turns busy (which is what keeps exposed
// senders aligned on a shared idle edge), and after an ACK timeout it
// re-arms the same count without widening CW. Its frames carry span. done
// runs once the packet is delivered or dropped. SendFixed reports false,
// sending nothing, when the station already has a send in flight or l's
// queue is empty.
func (e *Engine) SendFixed(l *topo.Link, slots int, span int64, done func()) bool {
	n := e.nodes[l.Sender]
	if n.st != stIdle {
		return false
	}
	p, ok := e.queues[l.ID].Pop()
	if !ok {
		return false
	}
	n.pending, n.busy = p, true
	if e.Life != nil {
		e.Life.PacketDequeued(&n.pending, e.k.Now())
	}
	n.span, n.fixed, n.done = span, slots, done
	n.counter = slots
	n.st = stBackoff
	n.tryScheduleFire()
	return true
}

// New creates a DCF engine for the given links. Each distinct sender among
// the links becomes a contending node; every node named by any link is
// registered on the medium (receivers must ACK).
func New(k *sim.Kernel, medium *phy.Medium, links []*topo.Link, events mac.Events, cfg Config) *Engine {
	if events == nil {
		events = mac.NopEvents{}
	}
	e := &Engine{
		k: k, medium: medium, events: events, cfg: cfg,
		nodes: map[phy.NodeID]*node{},
	}
	e.links = make([]*topo.Link, len(links))
	e.senders = make([]*node, len(links))
	e.queues = make([]*mac.Queue, len(links))
	for _, l := range links {
		if l.ID < 0 || l.ID >= len(links) {
			panic(fmt.Sprintf("dcf: link IDs must be dense, got %d", l.ID))
		}
		e.links[l.ID] = l
		e.queues[l.ID] = mac.NewQueue(cfg.QueueCap)
	}
	addNode := func(id phy.NodeID) *node {
		n, ok := e.nodes[id]
		if !ok {
			n = &node{e: e, id: id, cw: cfg.CWMin}
			n.fireFn, n.tryScheduleFireFn = n.fire, n.tryScheduleFire
			n.txDoneFn, n.ackTimeoutFn = n.txDone, n.ackTimeout
			e.nodes[id] = n
			medium.Register(id, n)
		}
		return n
	}
	for _, l := range links {
		n := addNode(l.Sender)
		n.links = append(n.links, l)
		e.senders[l.ID] = n
		addNode(l.Receiver)
	}
	return e
}

// Start implements mac.Engine. DCF is purely reactive; nothing to arm.
func (e *Engine) Start() {}

// QueueLen implements mac.Engine.
func (e *Engine) QueueLen(link int) int { return e.queues[link].Len() }

// Enqueue implements mac.Engine.
func (e *Engine) Enqueue(p mac.Packet) bool {
	stored := e.intake.Admit(e.queues[p.Link], &p, e.events, e.k.Now())
	if stored == nil {
		return false
	}
	if e.Life != nil {
		e.Life.PacketQueued(stored, e.k.Now())
	}
	if n := e.senders[p.Link]; n.st == stIdle {
		n.serveNext()
	}
	return true
}

// dataAirtime returns the on-air duration of a data frame.
func (e *Engine) dataAirtime(bytes int) sim.Time {
	return phy.Airtime(bytes, e.cfg.Rate) + e.cfg.ExtraFrameTime
}

func (e *Engine) ackAirtime() sim.Time {
	return phy.Airtime(phy.AckBytes, e.cfg.AckRate) + e.cfg.ExtraFrameTime
}

// serveNext picks the node's next packet round-robin over its backlogged
// links and begins contention.
func (n *node) serveNext() {
	if n.busy || len(n.links) == 0 {
		return
	}
	for i := 0; i < len(n.links); i++ {
		l := n.links[(n.rr+i)%len(n.links)]
		if p, ok := n.e.queues[l.ID].Pop(); ok {
			n.rr = (n.rr + i + 1) % len(n.links)
			n.pending, n.busy = p, true
			if n.e.Life != nil {
				n.e.Life.PacketDequeued(&n.pending, n.e.k.Now())
			}
			// A contended send has no scheduling cause: the packet's own
			// span is the attempt.
			n.span, n.fixed = n.pending.Span, -1
			n.startContention()
			return
		}
	}
	n.st = stIdle
}

// startContention draws a fresh backoff counter and begins counting down.
func (n *node) startContention() {
	n.counter = n.e.k.Rand().Intn(n.cw + 1)
	if n.e.Obs != nil {
		rec := obs.Rec(n.e.k.Now(), obs.KindBackoff)
		rec.Node = int(n.id)
		rec.Value = int64(n.counter)
		rec.Extra = int64(n.cw)
		rec.Parent = n.pending.Span
		n.e.Obs.Emit(rec)
	}
	n.st = stBackoff
	n.tryScheduleFire()
}

// tryScheduleFire arms the transmit event if the channel is idle; otherwise
// the node waits for CarrierChanged(false).
func (n *node) tryScheduleFire() {
	if n.st != stBackoff || n.fireEv.Scheduled() || n.e.medium.Busy(n.id) ||
		n.e.k.Now() < n.nav {
		return
	}
	n.fireBase = n.e.k.Now()
	wait := n.e.cfg.DIFS + sim.Time(n.counter)*n.e.cfg.SlotTime
	n.fireEv = n.e.k.After(wait, n.fireFn).SetSource(sim.SrcMAC)
}

// CarrierChanged implements phy.Listener: pause and resume backoff.
func (n *node) CarrierChanged(busy bool) {
	if busy {
		n.busySince = n.e.k.Now()
	}
	if n.st != stBackoff {
		return
	}
	if busy {
		// A fire due at this exact instant is committed: a station cannot
		// abort within its RX/TX turnaround, which is how two stations
		// drawing the same backoff slot genuinely collide.
		if n.fireEv.Scheduled() && n.fireEv.At() > n.e.k.Now() {
			// A random backoff freezes and later resumes; a fixed one
			// restarts whole.
			elapsed := n.e.k.Now() - n.fireBase - n.e.cfg.DIFS
			if n.fixed < 0 && elapsed > 0 {
				consumed := int(elapsed / n.e.cfg.SlotTime)
				if consumed > n.counter {
					consumed = n.counter
				}
				n.counter -= consumed
			}
			n.fireEv.Cancel()
			n.fireEv = sim.Event{}
		}
		return
	}
	n.tryScheduleFire()
}

// fire transmits the pending data frame.
func (n *node) fire() {
	n.fireEv = sim.Event{}
	if n.st != stBackoff || !n.busy {
		return
	}
	// Abort only if the medium turned busy before this instant; a busy
	// transition at the fire instant itself is inside the turnaround window.
	if n.e.medium.Busy(n.id) && n.busySince != n.e.k.Now() {
		return
	}
	p := &n.pending
	n.st = stTx
	p.TxSpan = n.span
	dur := n.e.dataAirtime(int(p.Bytes))
	n.e.medium.Transmit(n.id, &phy.Frame{
		Kind: phy.Data, Dst: n.e.links[p.Link].Receiver, Bytes: int(p.Bytes),
		Rate: n.e.cfg.Rate, Duration: dur, Handle: p.Handle, ObsSpan: n.span,
	})
	n.e.k.After(dur, n.txDoneFn).SetSource(sim.SrcMAC)
}

// txDone runs as the data frame leaves the air and arms the ACK timeout.
func (n *node) txDone() {
	if n.st == stTx {
		n.st = stWaitAck
		timeout := n.e.cfg.SIFS + n.e.ackAirtime() + 2*n.e.cfg.SlotTime
		n.timeoutEv = n.e.k.After(timeout, n.ackTimeoutFn).SetSource(sim.SrcMAC)
	}
}

// FrameReceived implements phy.Listener.
func (n *node) FrameReceived(f *phy.Frame, ok bool, _ *phy.SignatureDetection) {
	if !ok {
		return
	}
	if f.Dst != n.id {
		// Overheard data frame: reserve the medium through its ACK, or for
		// the frame's explicit NAV (e.g. DOMINO protecting its CFP).
		if f.Kind == phy.Data {
			until := n.e.k.Now() + n.e.cfg.SIFS + n.e.ackAirtime()
			if f.NAV > until {
				until = f.NAV
			}
			n.setNAV(until)
			if n.fireEv.Scheduled() && n.fireEv.At() > n.e.k.Now() {
				n.fireEv.Cancel()
				n.fireEv = sim.Event{}
			}
		}
		return
	}
	switch f.Kind {
	case phy.Data:
		n.sendAck(f)
	case phy.Ack:
		n.onAck(f)
	}
}

// sendAck responds to a correctly received data frame after SIFS. The ACK
// echoes the data frame's packet handle and carries its span.
func (n *node) sendAck(f *phy.Frame) {
	h, span := f.Handle, f.ObsSpan
	n.e.k.After(n.e.cfg.SIFS, func() {
		if n.e.medium.Transmitting(n.id) {
			return // half-duplex: cannot ACK while transmitting
		}
		// Sending the ACK pre-empts a pending backoff fire; contention
		// resumes when the channel next goes idle (the ACK itself keeps
		// neighbours deferring meanwhile).
		if n.fireEv.Scheduled() {
			n.fireEv.Cancel()
			n.fireEv = sim.Event{}
		}
		dur := n.e.ackAirtime()
		n.e.medium.Transmit(n.id, &phy.Frame{
			Kind: phy.Ack, Dst: f.Src, Bytes: phy.AckBytes,
			Rate: n.e.cfg.AckRate, Duration: dur, Handle: h, ObsSpan: span,
		})
		n.e.k.After(dur, n.tryScheduleFireFn)
	})
}

// onAck completes the pending transmission.
func (n *node) onAck(f *phy.Frame) {
	if n.st != stWaitAck || !n.busy || f.Handle != n.pending.Handle {
		return
	}
	if n.timeoutEv.Scheduled() {
		n.timeoutEv.Cancel()
		n.timeoutEv = sim.Event{}
	}
	done := n.done
	n.e.out, n.busy, n.done = n.pending, false, nil
	n.cw = n.e.cfg.CWMin
	n.st = stIdle
	n.e.events.Delivered(&n.e.out, n.e.k.Now())
	if done != nil {
		done()
	}
	n.serveNext()
}

// ackTimeout retries or drops the pending packet.
func (n *node) ackTimeout() {
	n.timeoutEv = sim.Event{}
	if n.st != stWaitAck || !n.busy {
		return
	}
	n.e.AckTimeouts++
	n.pending.Retries++
	if n.e.Obs != nil {
		rec := obs.Rec(n.e.k.Now(), obs.KindAckTimeout)
		rec.Node = int(n.id)
		rec.Value = int64(n.pending.Retries)
		rec.Parent = n.pending.Span
		n.e.Obs.Emit(rec)
	}
	if n.pending.Retries > mac.RetryLimit {
		done := n.done
		n.e.out, n.busy, n.done = n.pending, false, nil
		n.cw = n.e.cfg.CWMin
		n.e.Drops++
		n.e.events.Dropped(&n.e.out, n.e.k.Now())
		n.st = stIdle
		if done != nil {
			done()
		}
		n.serveNext()
		return
	}
	if n.fixed >= 0 {
		n.counter = n.fixed
		n.st = stBackoff
		n.tryScheduleFire()
		return
	}
	if n.cw < n.e.cfg.CWMax {
		n.cw = 2*n.cw + 1
		if n.cw > n.e.cfg.CWMax {
			n.cw = n.e.cfg.CWMax
		}
	}
	n.startContention()
}
