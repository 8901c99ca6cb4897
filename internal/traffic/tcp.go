package traffic

import (
	"math"

	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TCPConfig parameterises one TCP flow.
type TCPConfig struct {
	// RateMbps caps the application's offered load (the paper's 10 Mbps per
	// direction). Non-positive means an unlimited (bulk) sender.
	RateMbps float64
	// Bytes is the data segment size carried per MAC packet.
	Bytes int
	// AckBytes is the MAC size of a transport acknowledgement.
	AckBytes int
	// InitCwnd is the initial congestion window in segments.
	InitCwnd float64
	// RTOMin clamps the retransmission timeout.
	RTOMin sim.Time
}

// DefaultTCPConfig mirrors the evaluation settings: 512 B segments, 40 B
// ACKs, standard Reno parameters.
func DefaultTCPConfig(rateMbps float64) TCPConfig {
	return TCPConfig{
		RateMbps: rateMbps,
		Bytes:    512,
		AckBytes: 40,
		InitCwnd: 2,
		RTOMin:   200 * sim.Millisecond,
	}
}

// tokenCap caps a rate-capped flow's token bucket, so an idle
// (cwnd-limited) application cannot burst unboundedly later.
const tokenCap = 64

// tickProbe, when set, sees every token tick: whether it raised the bucket
// and how many segments it sent. Only tests set it.
var tickProbe func(raised bool, sent uint64)

// TCPFlow is a unidirectional Reno-style TCP connection: data segments on
// DataLink, cumulative ACKs returned on AckLink. Sequence numbers count
// segments, not bytes. The flow implements mac.Events and must be registered
// in the engine's event mux.
//
// A rate-capped flow's application is a token clock on the grid
// Start + m·interval (one segment interval): each tick adds a token, up to
// tokenCap, and sends what the window and the tokens allow. A tick that
// leaves the bucket full and the window closed parks the clock, for every
// later tick would change nothing until the window moves. Only an ACK
// (onAck) can open it or spend tokens: a timeout leaves a window of one
// with a segment outstanding. An ACK ends by waking the clock if the
// bucket is below its cap or the window is open: the next tick lands on
// the same grid, at the first instant an always-running clock would not
// have passed yet. Every tick that runs therefore fires at the instant it
// always did, and every tick skipped is one that would have done nothing.
type TCPFlow struct {
	k      *sim.Kernel
	engine mac.Engine
	id     int
	data   *topo.Link
	ack    *topo.Link
	cfg    TCPConfig

	// Sender state.
	cwnd      float64
	ssthresh  float64
	sndUna    uint64 // oldest unacknowledged
	sndMax    uint64 // highest sent + 1, the next fresh sequence
	dupAcks   int
	recover   uint64
	inFastRec bool
	srtt      sim.Time
	rttvar    sim.Time
	rto       sim.Time
	rtoTimer  sim.Event
	// sendTime[seq&(len-1)] is segment seq's send time, for seq in
	// [sndUna, sndMax), or noSample once it was retransmitted (Karn: fresh
	// sends only). Its length is a power of two, doubled when the window
	// outgrows it.
	sendTime  []sim.Time
	appTokens float64
	// The token clock: interval is the segment interval, tick the next
	// tick (not scheduled while parked) and lastTick the latest tick's
	// instant.
	interval, lastTick sim.Time
	tick               sim.Event
	// tokenFn and rtoFn are tokenTick and onRTO bound once, so re-arming
	// the token clock or the RTO allocates no method value.
	tokenFn, rtoFn func()

	// Receiver state. outOfOrd[seq&(len-1)] marks segment seq received
	// ahead of rcvNxt, for seq in (rcvNxt, rcvNxt+len); a power-of-two
	// length, doubled as sendTime's is.
	rcvNxt   uint64
	outOfOrd []bool

	// Counters. Only tests read them.
	Retransmits   int
	Timeouts      int
	FastRecovered int
	AckedSegments uint64
}

// NewTCPFlow wires a flow with the given ID over a data link and its reverse
// ACK link.
func NewTCPFlow(k *sim.Kernel, e mac.Engine, id int, data, ack *topo.Link, cfg TCPConfig) *TCPFlow {
	if cfg.Bytes <= 0 {
		cfg.Bytes = 512
	}
	if cfg.AckBytes <= 0 {
		cfg.AckBytes = 40
	}
	if cfg.InitCwnd <= 0 {
		cfg.InitCwnd = 2
	}
	if cfg.RTOMin <= 0 {
		cfg.RTOMin = 200 * sim.Millisecond
	}
	f := &TCPFlow{
		k: k, engine: e, id: id, data: data, ack: ack, cfg: cfg,
		cwnd:     cfg.InitCwnd,
		ssthresh: 64,
		rto:      cfg.RTOMin + 800*sim.Millisecond,
		sendTime: make([]sim.Time, 16),
		outOfOrd: make([]bool, 16),
	}
	if cfg.RateMbps > 0 {
		// At least 1 ns: a rate so high that the interval rounds to zero
		// would tick forever at one instant.
		f.interval = max(1, sim.Time(float64(cfg.Bytes*8)/(cfg.RateMbps*1e6)*1e9))
	}
	f.tokenFn, f.rtoFn = f.tokenTick, f.onRTO
	return f
}

// noSample marks a sendTime entry whose segment was retransmitted.
const noSample sim.Time = -1

// Start begins transmission; with a rate cap it also starts the token clock.
func (f *TCPFlow) Start() {
	if f.cfg.RateMbps > 0 {
		f.appTokens = f.cfg.InitCwnd
		f.lastTick = f.k.Now()
		f.tick = f.k.After(f.interval, f.tokenFn).SetSource(sim.SrcTraffic)
	}
	f.trySend()
}

// tokenTick is one tick of the token clock; it parks the clock when no
// later tick could act (TCPFlow).
func (f *TCPFlow) tokenTick() {
	f.lastTick = f.k.Now()
	raised := f.appTokens < tokenCap
	if raised {
		f.appTokens++
	}
	sent := f.sndMax
	f.trySend()
	if tickProbe != nil {
		tickProbe(raised, f.sndMax-sent)
	}
	if !f.idle() {
		f.tick = f.k.After(f.interval, f.tokenFn)
	}
}

// idle reports whether a tick would change nothing: the bucket is full and
// the window closed.
func (f *TCPFlow) idle() bool {
	return f.appTokens >= tokenCap && f.inflight() >= math.Floor(f.cwnd)
}

// wake restarts a parked token clock unless it is idle. The next tick is
// the first grid instant lastTick + m·interval that an always-running
// clock would not have passed. An instant equal to now counts as passed
// when its tick would have run before the executing event: that tick
// would have been scheduled at the grid instant before it, and the kernel
// runs the earlier-scheduled of two events due at one instant first.
//
// The instant is exact; two orders within an instant are not. A restarted
// tick runs after the events due at its instant that were scheduled since
// the grid instant before it, which the always-running clock's tick
// preceded. And an event scheduled exactly at the grid instant before
// counts as not after it, though that instant's tick may have run first.
// Either can change an outcome only when the tick sends at an instant an
// event of the same link shares. The TCP goldens and the t10x2-tcp digests
// of seeds 1-10 are unchanged, and in those runs no restart met the
// second case.
func (f *TCPFlow) wake() {
	if f.cfg.RateMbps <= 0 || f.tick.Scheduled() || f.idle() {
		return
	}
	now := f.k.Now()
	next := now - (now-f.lastTick)%f.interval // the latest grid instant not after now
	if next == f.lastTick || next < now || f.k.ScheduledAt() > next-f.interval {
		next += f.interval
	}
	f.tick = f.k.At(next, f.tokenFn).SetSource(sim.SrcTraffic)
}

func (f *TCPFlow) inflight() float64 { return float64(f.sndMax - f.sndUna) }

// trySend pushes new segments while the congestion window and application
// backlog allow.
func (f *TCPFlow) trySend() {
	for f.inflight() < math.Floor(f.cwnd) {
		if f.cfg.RateMbps > 0 && f.appTokens < 1 {
			return
		}
		f.sendSegment(f.sndMax, true)
		f.sndMax++
		if f.cfg.RateMbps > 0 {
			f.appTokens--
		}
	}
}

func (f *TCPFlow) sendSegment(seq uint64, fresh bool) {
	if fresh {
		if seq-f.sndUna >= uint64(len(f.sendTime)) {
			f.sendTime = regrow(f.sendTime, f.sndUna, seq)
		}
		f.sendTime[seq&uint64(len(f.sendTime)-1)] = f.k.Now()
	} else {
		f.sendTime[seq&uint64(len(f.sendTime)-1)] = noSample // Karn: never sample a retransmitted segment
		f.Retransmits++
	}
	f.engine.Enqueue(mac.Packet{
		Link:     int32(f.data.ID),
		Bytes:    int32(f.cfg.Bytes),
		Enqueued: f.k.Now(),
		Seq:      uint32(seq),
		FlowID:   int32(f.id),
	})
	// The RTO guards the oldest outstanding segment: arm it if idle, but do
	// not push it out on every transmission (that would let a steady stream
	// of duplicate ACKs starve the timeout forever).
	if !f.rtoTimer.Scheduled() {
		f.armRTO()
	}
}

func (f *TCPFlow) armRTO() {
	if f.rtoTimer.Scheduled() {
		f.rtoTimer.Cancel()
	}
	f.rtoTimer = f.k.After(f.rto, f.rtoFn).SetSource(sim.SrcTraffic)
}

func (f *TCPFlow) onRTO() {
	f.rtoTimer = sim.Event{}
	if f.sndUna == f.sndMax {
		return // everything acknowledged; nothing to recover
	}
	f.Timeouts++
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.dupAcks = 0
	f.inFastRec = false
	f.rto *= 2
	if max := 10 * sim.Second; f.rto > max {
		f.rto = max
	}
	// A window of one with a segment outstanding is closed, so a parked
	// clock, whose bucket is full, stays parked.
	f.sendSegment(f.sndUna, false)
}

// Delivered implements mac.Events: receiver-side processing for data
// segments, sender-side for returning ACKs.
func (f *TCPFlow) Delivered(p *mac.Packet, now sim.Time) {
	if int(p.FlowID) != f.id {
		return
	}
	switch link := int(p.Link); {
	case link == f.data.ID && !p.TCPAck:
		f.onData(p, now)
	case link == f.ack.ID && p.TCPAck:
		f.onAck(p, now)
	}
}

// Dropped implements mac.Events. MAC-level losses are invisible to real TCP;
// the RTO and duplicate ACKs recover.
func (f *TCPFlow) Dropped(*mac.Packet, sim.Time) {}

// onData runs at the receiver: track in-order delivery, return a cumulative
// ACK for every arriving segment.
func (f *TCPFlow) onData(p *mac.Packet, now sim.Time) {
	switch seq := uint64(p.Seq); {
	case seq == f.rcvNxt:
		f.rcvNxt++
		for m := uint64(len(f.outOfOrd) - 1); f.outOfOrd[f.rcvNxt&m]; f.rcvNxt++ {
			f.outOfOrd[f.rcvNxt&m] = false
		}
	case seq > f.rcvNxt:
		if seq-f.rcvNxt >= uint64(len(f.outOfOrd)) {
			f.outOfOrd = regrow(f.outOfOrd, f.rcvNxt, seq)
		}
		f.outOfOrd[seq&uint64(len(f.outOfOrd)-1)] = true
	}
	f.engine.Enqueue(mac.Packet{
		Link:     int32(f.ack.ID),
		Bytes:    int32(f.cfg.AckBytes),
		Enqueued: now,
		Seq:      p.Seq, // echo for traceability
		FlowID:   int32(f.id),
		TCPAck:   true,
		AckSeq:   uint32(f.rcvNxt),
	})
}

// onAck runs at the sender.
func (f *TCPFlow) onAck(p *mac.Packet, now sim.Time) {
	ack := uint64(p.AckSeq)
	switch {
	case ack > f.sndUna:
		newly := ack - f.sndUna
		f.AckedSegments += newly
		if t := f.sendTime[(ack-1)&uint64(len(f.sendTime)-1)]; t != noSample {
			f.sampleRTT(now - t)
		}
		f.sndUna = ack
		f.dupAcks = 0
		if f.inFastRec {
			if ack >= f.recover {
				f.inFastRec = false
				f.cwnd = f.ssthresh
			} else {
				// Partial ACK: retransmit the next hole immediately.
				f.sendSegment(f.sndUna, false)
			}
		} else if f.cwnd < f.ssthresh {
			f.cwnd += float64(newly) // slow start
		} else {
			f.cwnd += float64(newly) / f.cwnd // congestion avoidance
		}
		if f.sndUna == f.sndMax && f.rtoTimer.Scheduled() {
			f.rtoTimer.Cancel()
			f.rtoTimer = sim.Event{}
		} else {
			f.armRTO()
		}
		f.trySend()
	case ack == f.sndUna && f.sndMax > f.sndUna:
		f.dupAcks++
		if f.dupAcks == 3 && !f.inFastRec {
			f.FastRecovered++
			f.ssthresh = math.Max(f.cwnd/2, 2)
			f.cwnd = f.ssthresh + 3
			f.inFastRec = true
			f.recover = f.sndMax
			f.sendSegment(f.sndUna, false)
		} else if f.inFastRec {
			f.cwnd++ // inflate per extra dup ACK
			f.trySend()
		}
	}
	f.wake()
}

// regrow returns ring, a power-of-two ring indexed by sequence number whose
// window starts at from, doubled until the window holds upTo too. The
// entries of the old window, [from, from+len(ring)), keep their sequence
// numbers; the rest are zero.
func regrow[T any](ring []T, from, upTo uint64) []T {
	n := 2 * len(ring)
	for upTo-from >= uint64(n) {
		n *= 2
	}
	grown := make([]T, n)
	for s := from; s < from+uint64(len(ring)); s++ {
		grown[s&uint64(n-1)] = ring[s&uint64(len(ring)-1)]
	}
	return grown
}

// sampleRTT updates srtt/rttvar/rto per RFC 6298.
func (f *TCPFlow) sampleRTT(rtt sim.Time) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		diff := f.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		f.rttvar = (3*f.rttvar + diff) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < f.cfg.RTOMin {
		f.rto = f.cfg.RTOMin
	}
}
