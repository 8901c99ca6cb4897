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

// TCPFlow is a unidirectional Reno-style TCP connection: data segments on
// DataLink, cumulative ACKs returned on AckLink. Sequence numbers count
// segments, not bytes. The flow implements mac.Events and must be registered
// in the engine's event mux.
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
	nextSeq   uint64 // next fresh sequence to create
	sndUna    uint64 // oldest unacknowledged
	sndMax    uint64 // highest sent + 1
	dupAcks   int
	recover   uint64
	inFastRec bool
	srtt      sim.Time
	rttvar    sim.Time
	rto       sim.Time
	rtoTimer  sim.Event
	sendTime  map[uint64]sim.Time // for RTT sampling (Karn: fresh sends only)
	appTokens float64
	// tokenFn and rtoFn are tokenTick and onRTO bound once, so re-arming
	// the token clock or the RTO allocates no method value.
	tokenFn, rtoFn func()

	// Receiver state.
	rcvNxt   uint64
	outOfOrd map[uint64]bool

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
		sendTime: map[uint64]sim.Time{},
		outOfOrd: map[uint64]bool{},
	}
	f.tokenFn, f.rtoFn = f.tokenTick, f.onRTO
	return f
}

// Start begins transmission; with a rate cap it also starts the token clock.
func (f *TCPFlow) Start() {
	if f.cfg.RateMbps > 0 {
		f.appTokens = f.cfg.InitCwnd
		f.k.After(f.tokenInterval(), f.tokenFn).SetSource(sim.SrcTraffic)
	}
	f.trySend()
}

func (f *TCPFlow) tokenInterval() sim.Time {
	return sim.Time(float64(f.cfg.Bytes*8) / (f.cfg.RateMbps * 1e6) * 1e9)
}

func (f *TCPFlow) tokenTick() {
	// Cap the token bucket so an idle (cwnd-limited) app cannot burst
	// unboundedly later.
	if f.appTokens < 64 {
		f.appTokens++
	}
	f.trySend()
	f.k.After(f.tokenInterval(), f.tokenFn)
}

func (f *TCPFlow) inflight() float64 { return float64(f.sndMax - f.sndUna) }

// trySend pushes new segments while the congestion window and application
// backlog allow.
func (f *TCPFlow) trySend() {
	for f.inflight() < math.Floor(f.cwnd) {
		if f.cfg.RateMbps > 0 && f.appTokens < 1 {
			return
		}
		seq := f.nextSeq
		f.sendSegment(seq, true)
		f.nextSeq++
		f.sndMax = f.nextSeq
		if f.cfg.RateMbps > 0 {
			f.appTokens--
		}
	}
}

func (f *TCPFlow) sendSegment(seq uint64, fresh bool) {
	if fresh {
		f.sendTime[seq] = f.k.Now()
	} else {
		delete(f.sendTime, seq) // Karn: never sample a retransmitted segment
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
		for f.outOfOrd[f.rcvNxt] {
			delete(f.outOfOrd, f.rcvNxt)
			f.rcvNxt++
		}
	case seq > f.rcvNxt:
		f.outOfOrd[seq] = true
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
		if t, ok := f.sendTime[ack-1]; ok {
			f.sampleRTT(now - t)
		}
		for s := f.sndUna; s < ack; s++ {
			delete(f.sendTime, s)
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
