package phy

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Medium is the shared radio channel. All methods must be called from inside
// the simulation event loop (the kernel is single-threaded).
type Medium struct {
	k     *sim.Kernel
	cfg   Config
	rss   [][]float64 // rss[i][j]: dBm received at j when i transmits
	rssMw [][]float64 // rss converted to mW once; Transmit is pow-free
	nodes []nodeState

	csMw    float64
	floorMw float64
	noiseMw float64

	// Counters for tests and reporting.
	Transmissions int
	Delivered     int
	Corrupted     int

	probe Probe

	// thresholds caches each frame rate's decode threshold, in dB and as
	// the linear S/I bounds decodable compares against; one entry per
	// distinct rate, appended on first use.
	thresholds []rateThreshold

	// Free lists. Transmissions and receptions churn once per frame; pooling
	// them (with their power vectors and reception lists) keeps the per-frame
	// path allocation-free in steady state. The scratch stacks below are
	// pools too, but stack-shaped: Transmit re-enters itself when a notified
	// listener reacts by transmitting, so each nesting level pops its own
	// buffer and pushes it back when done.
	txFree       []*transmission
	rxFree       []*reception
	carrierFree  [][]NodeID
	outcomesFree [][]outcome
}

type outcome struct {
	r   *reception
	ok  bool
	det *SignatureDetection
}

// Probe observes medium activity for the observability layer. Callbacks run
// inside the event loop after the medium state has settled; implementations
// must not transmit or block. The medium stays obs-agnostic: obs implements
// this interface, nothing here imports it.
type Probe interface {
	// TxStart fires when a frame goes on the air.
	TxStart(f *Frame, now sim.Time)
	// TxEnd fires when the frame leaves the air, before receptions are
	// judged and listeners notified.
	TxEnd(f *Frame, now sim.Time)
	// RxOutcome fires once per judged reception with its decode outcome.
	RxOutcome(f *Frame, at NodeID, ok bool, now sim.Time)
}

// SetProbe installs the activity probe (nil disables, the default). The
// disabled cost is one nil check per transmission start/end.
func (m *Medium) SetProbe(p Probe) { m.probe = p }

type nodeState struct {
	listener Listener
	// totalMw is the summed received power (mW) of all active transmissions
	// heard at this node, excluding its own.
	totalMw float64
	// sigMw is the portion of totalMw contributed by Signature frames.
	sigMw float64
	// activeSigs tracks concurrent signature transmissions audible here,
	// with their received power: the combined-detection load for a
	// correlator counts only signatures comparable in power to its target
	// (weaker ones vanish under the spreading gain).
	activeSigs []sigRec
	tx         *transmission
	busy       bool
	recs       []*reception
}

type sigRec struct {
	tx      *transmission
	powerMw float64
	n       int
}

// combinedSigsNear sums the signature counts of active transmissions whose
// power is within 10 dB of the target's.
func (ns *nodeState) combinedSigsNear(targetMw float64) int {
	total := 0
	for _, r := range ns.activeSigs {
		if r.powerMw >= targetMw/10 {
			total += r.n
		}
	}
	return total
}

type transmission struct {
	frame *Frame
	src   NodeID
	// powerMw[j] is this transmission's received power at node j, cached so
	// start and end adjust node totals by exactly the same amount.
	powerMw []float64
	recs    []*reception
	sig     bool
	sigN    int
	// end is built once per pooled struct and rescheduled on every reuse, so
	// the air-time timer costs no closure allocation per frame.
	end func()
}

type reception struct {
	tx      *transmission
	at      NodeID
	powerMw float64
	// interfMaxMw is the worst instantaneous interference-plus-noise (mW)
	// observed during the frame. For Signature frames, signature-frame power
	// is excluded (orthogonal codes) and maxSigs tracks the combination load.
	interfMaxMw float64
	maxSigs     int
	failed      bool // half-duplex violation
	// det is the signature-detection report handed to the listener, embedded
	// here so judging a signature frame allocates nothing. The pointer is
	// only valid during the FrameReceived callback (the reception recycles
	// right after), and no listener retains it.
	det SignatureDetection
}

// NewMedium builds a medium over the given RSS matrix (dBm, indexed
// [src][dst]; the diagonal is ignored). The matrix is retained, not copied.
func NewMedium(k *sim.Kernel, rssDBm [][]float64, cfg Config) *Medium {
	n := len(rssDBm)
	for i, row := range rssDBm {
		if len(row) != n {
			panic(fmt.Sprintf("phy: rss row %d has %d entries, want %d", i, len(row), n))
		}
	}
	if cfg.Detector == nil {
		cfg.Detector = DefaultDetector
	}
	// The RSS matrix is fixed for the medium's lifetime, so the dBm→mW
	// conversion (a pow per pair) runs once here instead of on every
	// transmission's per-node loop.
	rssMw := make([][]float64, n)
	for i, row := range rssDBm {
		rssMw[i] = make([]float64, n)
		for j, dbm := range row {
			rssMw[i][j] = DBmToMw(dbm)
		}
	}
	return &Medium{
		k:       k,
		cfg:     cfg,
		rss:     rssDBm,
		rssMw:   rssMw,
		nodes:   make([]nodeState, n),
		csMw:    DBmToMw(cfg.CSThreshDBm),
		floorMw: DBmToMw(cfg.DeliverFloorDBm),
		noiseMw: DBmToMw(cfg.NoiseDBm),
	}
}

// allocTx returns a pooled transmission with its power vector and reception
// list ready for reuse.
func (m *Medium) allocTx() *transmission {
	if n := len(m.txFree) - 1; n >= 0 {
		tx := m.txFree[n]
		m.txFree[n] = nil
		m.txFree = m.txFree[:n]
		return tx
	}
	tx := &transmission{powerMw: make([]float64, len(m.nodes))}
	tx.end = func() { m.endTransmission(tx) }
	return tx
}

func (m *Medium) releaseTx(tx *transmission) {
	tx.frame = nil
	tx.recs = tx.recs[:0]
	m.txFree = append(m.txFree, tx)
}

func (m *Medium) allocRx() *reception {
	if n := len(m.rxFree) - 1; n >= 0 {
		r := m.rxFree[n]
		m.rxFree[n] = nil
		m.rxFree = m.rxFree[:n]
		*r = reception{}
		return r
	}
	return new(reception)
}

func (m *Medium) releaseRx(r *reception) {
	r.tx = nil
	m.rxFree = append(m.rxFree, r)
}

// popCarrier/pushCarrier manage the carrier-notification scratch as a stack:
// nested Transmit calls (a listener transmitting in reaction to a carrier
// flip) each get their own buffer.
func (m *Medium) popCarrier() []NodeID {
	if n := len(m.carrierFree) - 1; n >= 0 {
		buf := m.carrierFree[n]
		m.carrierFree = m.carrierFree[:n]
		return buf
	}
	return make([]NodeID, 0, len(m.nodes))
}

func (m *Medium) pushCarrier(buf []NodeID) {
	m.carrierFree = append(m.carrierFree, buf[:0])
}

func (m *Medium) popOutcomes() []outcome {
	if n := len(m.outcomesFree) - 1; n >= 0 {
		buf := m.outcomesFree[n]
		m.outcomesFree = m.outcomesFree[:n]
		return buf
	}
	return make([]outcome, 0, len(m.nodes))
}

func (m *Medium) pushOutcomes(buf []outcome) {
	for i := range buf {
		buf[i] = outcome{}
	}
	m.outcomesFree = append(m.outcomesFree, buf[:0])
}

// NumNodes returns the number of radios on the medium.
func (m *Medium) NumNodes() int { return len(m.nodes) }

// Kernel returns the simulation kernel driving the medium.
func (m *Medium) Kernel() *sim.Kernel { return m.k }

// Config returns the medium's parameters.
func (m *Medium) Config() Config { return m.cfg }

// Register installs the listener for a node. At most one listener per node.
func (m *Medium) Register(n NodeID, l Listener) {
	if m.nodes[n].listener != nil {
		panic(fmt.Sprintf("phy: node %d already has a listener", n))
	}
	m.nodes[n].listener = l
}

// RSS returns the received signal strength (dBm) at dst when src transmits.
func (m *Medium) RSS(src, dst NodeID) float64 { return m.rss[src][dst] }

// SNRdB returns the interference-free SNR of the src→dst channel.
func (m *Medium) SNRdB(src, dst NodeID) float64 {
	return m.rss[src][dst] - m.cfg.NoiseDBm
}

// InRange reports whether dst can decode a frame from src at the given rate
// with no interference present.
func (m *Medium) InRange(src, dst NodeID, rate Rate) bool {
	return m.rss[src][dst] >= m.cfg.DeliverFloorDBm &&
		m.SNRdB(src, dst) >= SNRThresholdDB(rate)
}

// Hears reports whether dst's carrier sense detects src's transmissions.
func (m *Medium) Hears(src, dst NodeID) bool {
	return m.rss[src][dst] >= m.cfg.CSThreshDBm
}

// Busy reports the carrier-sense state at n: energy from other transmitters
// above the CS threshold, or n itself transmitting.
func (m *Medium) Busy(n NodeID) bool {
	return m.nodes[n].tx != nil || m.nodes[n].totalMw >= m.csMw
}

// Transmitting reports whether n is currently transmitting.
func (m *Medium) Transmitting(n NodeID) bool { return m.nodes[n].tx != nil }

// Transmit puts a frame on the air from src. The frame occupies the medium
// for its AirTime; reception outcomes are delivered to listeners when it
// ends. Transmitting while already transmitting panics (a MAC bug).
func (m *Medium) Transmit(src NodeID, f *Frame) {
	ns := &m.nodes[src]
	if ns.tx != nil {
		panic(fmt.Sprintf("phy: node %d transmit while transmitting (%v over %v)",
			src, f.Kind, ns.tx.frame.Kind))
	}
	f.Src = src
	m.Transmissions++
	tx := m.allocTx()
	tx.frame = f
	tx.src = src
	ns.tx = tx

	// Half-duplex: starting a transmission destroys anything the node was
	// receiving.
	for _, r := range ns.recs {
		r.failed = true
	}

	sig := f.Kind == Signature
	var sigN int
	if sig {
		if p, ok := f.Payload.(*SignaturePayload); ok {
			sigN = p.Combined()
		} else {
			sigN = 1
		}
	}
	tx.sig, tx.sigN = sig, sigN

	rowMw := m.rssMw[src]
	carrier := m.popCarrier()
	for j := range m.nodes {
		if NodeID(j) == src {
			continue
		}
		p := rowMw[j]
		tx.powerMw[j] = p
		dst := &m.nodes[j]
		dst.totalMw += p
		if sig {
			dst.sigMw += p
			dst.activeSigs = append(dst.activeSigs, sigRec{tx: tx, powerMw: p, n: sigN})
		}
		// Raise the observed interference for every in-flight reception.
		for _, r := range dst.recs {
			m.foldInterference(r, dst)
		}
		// Start a reception if the frame is strong enough to matter.
		if dst.listener != nil && p >= m.floorMw {
			r := m.allocRx()
			r.tx, r.at, r.powerMw, r.failed = tx, NodeID(j), p, dst.tx != nil
			m.foldInterference(r, dst)
			dst.recs = append(dst.recs, r)
			tx.recs = append(tx.recs, r)
		}
		if m.carrierFlipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	if m.probe != nil {
		m.probe.TxStart(f, m.k.Now())
	}
	// Notify only after the medium state has fully settled: a listener may
	// react by transmitting, which re-enters this method.
	m.notifyCarrier(carrier)
	m.pushCarrier(carrier)

	m.k.After(f.AirTime(), tx.end).SetSource(sim.SrcPHY)
}

// foldInterference updates r's worst-case interference from the current state
// at node dst.
func (m *Medium) foldInterference(r *reception, dst *nodeState) {
	var interf float64
	if r.tx.frame.Kind == Signature {
		// Orthogonal spreading: other signatures do not count as noise, but
		// the combination load of comparably strong ones does.
		interf = dst.totalMw - dst.sigMw + m.noiseMw
		if n := dst.combinedSigsNear(r.powerMw); n > r.maxSigs {
			r.maxSigs = n
		}
	} else {
		interf = dst.totalMw - r.powerMw + m.noiseMw
	}
	if interf < m.noiseMw { // guard against FP residue
		interf = m.noiseMw
	}
	if interf > r.interfMaxMw {
		r.interfMaxMw = interf
	}
}

func (m *Medium) endTransmission(tx *transmission) {
	sig := tx.sig
	m.nodes[tx.src].tx = nil
	carrier := m.popCarrier()
	for j := range m.nodes {
		if NodeID(j) == tx.src {
			continue
		}
		dst := &m.nodes[j]
		dst.totalMw -= tx.powerMw[j]
		if dst.totalMw < 0 { // guard against FP residue
			dst.totalMw = 0
		}
		if sig {
			dst.sigMw -= tx.powerMw[j]
			if dst.sigMw < 0 {
				dst.sigMw = 0
			}
			for i, r := range dst.activeSigs {
				if r.tx == tx {
					dst.activeSigs[i] = dst.activeSigs[len(dst.activeSigs)-1]
					dst.activeSigs = dst.activeSigs[:len(dst.activeSigs)-1]
					break
				}
			}
		}
		if m.carrierFlipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	// Judge receptions while the state is settled, then notify: carrier
	// transitions first (the channel went idle as the frame ended), then the
	// frame outcomes.
	outcomes := m.popOutcomes()
	if m.probe != nil {
		m.probe.TxEnd(tx.frame, m.k.Now())
	}
	for _, r := range tx.recs {
		dst := &m.nodes[r.at]
		dst.recs = removeReception(dst.recs, r)
		ok, det := m.judge(r)
		if ok {
			m.Delivered++
		} else {
			m.Corrupted++
		}
		if m.probe != nil {
			m.probe.RxOutcome(tx.frame, r.at, ok, m.k.Now())
		}
		outcomes = append(outcomes, outcome{r, ok, det})
	}
	m.notifyCarrier(carrier)
	m.pushCarrier(carrier)
	frame := tx.frame
	for _, o := range outcomes {
		m.nodes[o.r.at].listener.FrameReceived(frame, o.ok, o.det)
	}
	// Recycle only after every callback ran: listeners must never observe a
	// reused struct mid-notification.
	for _, o := range outcomes {
		m.releaseRx(o.r)
	}
	m.pushOutcomes(outcomes)
	m.releaseTx(tx)
}

// judge decides a reception's outcome at frame end.
func (m *Medium) judge(r *reception) (bool, *SignatureDetection) {
	if r.tx.frame.Kind != Signature {
		return !r.failed && m.decodable(r.powerMw/r.interfMaxMw, r.tx.frame.Rate), nil
	}
	// One log instead of two: 10·log10(S/I) == S_dBm − I_dBm.
	sinr := 10 * math.Log10(r.powerMw/r.interfMaxMw)
	r.det = SignatureDetection{Combined: r.maxSigs, SINRdB: sinr}
	det := &r.det
	if r.failed || sinr < m.cfg.SigSINRdB {
		return false, det
	}
	p := m.cfg.Detector(r.maxSigs)
	return m.k.Rand().Float64() < p, det
}

// thresholdGuard is the relative half-width of the band around a rate's
// linear threshold inside which decodable falls back to the dB comparison.
// Outside it the two comparisons cannot disagree: 1e-9 of S/I is 4.3e-9 dB,
// millions of times the rounding error of a logarithm or of the threshold's
// own Pow.
const thresholdGuard = 1e-9

type rateThreshold struct {
	rate   Rate
	db     float64
	lo, hi float64 // linear S/I: below lo fails, above hi decodes
}

// decodable reports whether a frame at the given rate survives a signal-to-
// interference ratio of sir (linear). It decides exactly as
// 10·log10(sir) >= SNRThresholdDB(rate) does, without the logarithm except
// within thresholdGuard of the threshold.
func (m *Medium) decodable(sir float64, rate Rate) bool {
	th := m.threshold(rate)
	switch {
	case sir > th.hi:
		return true
	case sir < th.lo:
		return false
	}
	// Near the threshold, or NaN: the dB comparison itself.
	return 10*math.Log10(sir) >= th.db
}

// threshold returns the cached threshold entry for rate.
func (m *Medium) threshold(rate Rate) *rateThreshold {
	for i := range m.thresholds {
		if m.thresholds[i].rate == rate {
			return &m.thresholds[i]
		}
	}
	db := SNRThresholdDB(rate)
	lin := math.Pow(10, db/10)
	m.thresholds = append(m.thresholds, rateThreshold{
		rate: rate, db: db, lo: lin * (1 - thresholdGuard), hi: lin * (1 + thresholdGuard),
	})
	return &m.thresholds[len(m.thresholds)-1]
}

func removeReception(recs []*reception, r *reception) []*reception {
	for i, x := range recs {
		if x == r {
			recs[i] = recs[len(recs)-1]
			return recs[:len(recs)-1]
		}
	}
	return recs
}

// carrierFlipped records a carrier-sense transition at the node and reports
// whether a listener notification is due.
func (m *Medium) carrierFlipped(ns *nodeState) bool {
	busy := ns.totalMw >= m.csMw
	if busy == ns.busy {
		return false
	}
	ns.busy = busy
	return ns.listener != nil
}

func (m *Medium) notifyCarrier(ids []NodeID) {
	for _, id := range ids {
		ns := &m.nodes[id]
		ns.listener.CarrierChanged(ns.busy)
	}
}
