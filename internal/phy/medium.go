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

	probe Probe

	// thresholds caches each frame rate's decode threshold, in dB and as
	// the linear S/I bounds decodable compares against; one entry per
	// distinct rate, appended on first use. sigTh is the same for the
	// correlator's SigSINRdB.
	thresholds []rateThreshold
	sigTh      linThreshold

	// rxs is the reception arena: nodes and transmissions name receptions
	// by index, and a reception holds no pointer, so the per-frame
	// bookkeeping writes no pointer. rxFree lists the recycled slots.
	rxs    []reception
	rxFree []int32

	// Free lists. Transmissions churn once per frame; pooling them (with
	// their power vectors and reception lists) keeps the per-frame path
	// allocation-free in steady state. The scratch stacks below are pools
	// too, but stack-shaped: Transmit re-enters itself when a notified
	// listener reacts by transmitting, so each nesting level pops its own
	// buffer and pushes it back when done.
	txFree       []*transmission
	carrierFree  [][]NodeID
	outcomesFree [][]outcome
}

// outcome is one judged reception awaiting its listener callback. det is
// handed to the listener by address for signature frames; the pointer is
// only valid during the FrameReceived callback (the buffer recycles right
// after), and no listener retains it.
type outcome struct {
	r   int32
	at  NodeID
	ok  bool
	sig bool
	det SignatureDetection
}

// Probe observes medium activity for the observability layer. Callbacks run
// inside the event loop after the medium state has settled; implementations
// must not transmit or block. The frame each callback gets is the medium's
// copy (Transmit), valid only during the call. The medium stays
// obs-agnostic: obs implements this interface, nothing here imports it.
type Probe interface {
	// TxStart fires when a frame goes on the air.
	TxStart(f *Frame, now sim.Time)
	// TxEnd fires when the frame leaves the air, before receptions are
	// judged and listeners notified.
	TxEnd(f *Frame, now sim.Time)
	// RxOutcome fires once per built reception with its decode outcome:
	// at the frame's addressee, at every listening node for a signature, and
	// at nodes that registered to overhear the frame's kind (see Register).
	RxOutcome(f *Frame, at NodeID, ok bool, now sim.Time)
}

// SetProbe installs the activity probe (nil disables, the default). The
// disabled cost is one nil check per transmission start/end.
func (m *Medium) SetProbe(p Probe) { m.probe = p }

type nodeState struct {
	listener Listener
	// overhears holds the unaddressed frame kinds the listener reads.
	overhears KindSet
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
	// recs lists the node's live receptions in start order, each with the
	// running maxima of its segment (see reception).
	recs []liveRx
}

// liveRx is a live reception as its node lists it: the reception's arena
// index and the running maxima over the frame starts of its segment, the
// node's totalMw and its totalMw − sigMw + noise.
type liveRx struct {
	ri             int32
	totMaxMw       float64
	sigInterfMaxMw float64
}

// sigRec is one signature transmission on the air, named by its source: a
// node has at most one transmission on the air.
type sigRec struct {
	src     NodeID
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
	// frame is the medium's own copy of the transmitted frame: listeners
	// and the probe get its address, valid only during their callback, and
	// releaseTx zeroes it before the struct is reused.
	frame Frame
	src   NodeID
	// powerMw[j] is this transmission's received power at node j, cached so
	// start and end adjust node totals by exactly the same amount.
	powerMw []float64
	recs    []int32 // arena indices, in node order
	sig     bool
	// end is built once per pooled struct and rescheduled on every reuse, so
	// the air-time timer costs no closure allocation per frame.
	end func()
}

// reception is one frame arriving at one node whose listener acts on it:
// the frame is addressed to the node, is a signature, or is of a kind the
// node registered to overhear. Its worst instantaneous interference is the
// maximum over the frame starts heard at the node while it is on the air
// (starts are the only instants interference grows). Rather than fold every
// start into every live reception, a start is folded into the node's newest
// live reception only, so each reception's running maxima (held in its
// node's liveRx) cover its segment: the starts from its own until the node's
// next reception began, plus the segments of later receptions that have
// since ended. At frame end the reception's worst case is the maximum over
// its own segment and every later one (settle).
//
// Folding maxima of the node's total power instead of maxima of the
// interference is exact: the interference of a data frame is
// fl(fl(total − p) + noise), which IEEE rounding keeps monotone in total, so
// its maximum is the same expression at the maximum total. A signature
// frame's interference, total − sigMw + noise, does not depend on the
// reception, so its maximum is folded directly.
//
// Building receptions for only some frames leaves every built one exact. A
// node folds each start for as long as it holds any live reception, and the
// segment bookkeeping keeps each reception's worst case equal to the maximum
// over the starts since its own, spread over its segment and the later ones,
// whichever of the node's frames have receptions. A node holding none has no
// maxima to raise. The half-duplex flag and the combination load (maxSigs)
// belong to the reception alone.
type reception struct {
	at      NodeID
	powerMw float64
	rate    Rate
	// interfMw is the worst interference-plus-noise (mW) during the frame,
	// set by settle when the frame ends. For Signature frames, signature
	// power is excluded (orthogonal codes) and maxSigs tracks the
	// combination load instead.
	interfMw float64
	maxSigs  int
	sig      bool
	failed   bool // half-duplex violation
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
		sigTh:   newLinThreshold(cfg.SigSINRdB),
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
	tx.frame = Frame{}
	tx.recs = tx.recs[:0]
	m.txFree = append(m.txFree, tx)
}

// allocRx returns the index of a free arena slot; the caller overwrites it.
func (m *Medium) allocRx() int32 {
	if n := len(m.rxFree) - 1; n >= 0 {
		ri := m.rxFree[n]
		m.rxFree = m.rxFree[:n]
		return ri
	}
	m.rxs = append(m.rxs, reception{})
	return int32(len(m.rxs) - 1)
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
	m.outcomesFree = append(m.outcomesFree, buf[:0])
}

// Config returns the medium's parameters.
func (m *Medium) Config() Config { return m.cfg }

// Register installs the listener for a node, with the kinds of unaddressed
// frame it reads. The node receives frames addressed to it, every signature,
// and the frames of the overheard kinds; the medium builds no reception for
// any other frame there, which then only adds interference. Signatures are
// never filtered: their detection draws from the kernel's random source at
// every listening node. At most one listener per node.
func (m *Medium) Register(n NodeID, l Listener, overhears KindSet) {
	if m.nodes[n].listener != nil {
		panic(fmt.Sprintf("phy: node %d already has a listener", n))
	}
	m.nodes[n].listener = l
	m.nodes[n].overhears = overhears
}

// Busy reports the carrier-sense state at n: energy from other transmitters
// above the CS threshold, or n itself transmitting.
func (m *Medium) Busy(n NodeID) bool {
	return m.nodes[n].tx != nil || m.nodes[n].totalMw >= m.csMw
}

// Transmitting reports whether n is currently transmitting.
func (m *Medium) Transmitting(n NodeID) bool { return m.nodes[n].tx != nil }

// Transmit puts a copy of *f on the air from src, with Src set to src; f
// itself is not retained or modified, so the caller may build it on its
// stack and reuse it at once. The frame occupies the medium for its
// AirTime; reception outcomes are delivered to listeners when it ends. The
// copy is shallow: Payload is shared with the caller, who must leave what
// it points to unchanged until the frame has ended. Transmitting while
// already transmitting panics (a MAC bug).
func (m *Medium) Transmit(src NodeID, f *Frame) {
	ns := &m.nodes[src]
	if ns.tx != nil {
		panic(fmt.Sprintf("phy: node %d transmit while transmitting (%v over %v)",
			src, f.Kind, ns.tx.frame.Kind))
	}
	tx := m.allocTx()
	tx.frame = *f
	tx.frame.Src = src
	tx.src = src
	ns.tx = tx
	fr := &tx.frame

	// Half-duplex: starting a transmission destroys anything the node was
	// receiving.
	for _, lr := range ns.recs {
		m.rxs[lr.ri].failed = true
	}

	sig := fr.Kind == Signature
	var sigN int
	if sig {
		if p, ok := fr.Payload.(*SignaturePayload); ok {
			sigN = p.Combined()
		} else {
			sigN = 1
		}
	}
	tx.sig = sig
	kind := fr.Kind

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
			dst.activeSigs = append(dst.activeSigs, sigRec{src: src, powerMw: p, n: sigN})
		}
		build := dst.listener != nil && p >= m.floorMw &&
			(sig || fr.Dst == NodeID(j) || dst.overhears.Has(kind))
		if build || len(dst.recs) > 0 {
			m.frameStart(tx, NodeID(j), p, build)
		}
		if m.carrierFlipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	if m.probe != nil {
		m.probe.TxStart(fr, m.k.Now())
	}
	// Notify only after the medium state has fully settled: a listener may
	// react by transmitting, which re-enters this method.
	m.notifyCarrier(carrier)
	m.pushCarrier(carrier)

	m.k.After(fr.AirTime(), tx.end).SetSource(sim.SrcPHY)
}

// frameStart records tx's start, received at power p, at node j, whose
// totals already include it: the start raises the running maxima of the
// node's newest live reception (see reception), and starts a reception of
// its own if build is set.
func (m *Medium) frameStart(tx *transmission, j NodeID, p float64, build bool) {
	dst := &m.nodes[j]
	tot := dst.totalMw
	sigInterf := tot - dst.sigMw + m.noiseMw
	if n := len(dst.recs); n > 0 {
		lr := &dst.recs[n-1]
		if tot > lr.totMaxMw {
			lr.totMaxMw = tot
		}
		if sigInterf > lr.sigInterfMaxMw {
			lr.sigInterfMaxMw = sigInterf
		}
		// The combination load near a signature reception only grows when
		// a signature starts; in between, signatures can only leave.
		if tx.sig {
			for _, lr := range dst.recs {
				if r := &m.rxs[lr.ri]; r.sig {
					if c := dst.combinedSigsNear(r.powerMw); c > r.maxSigs {
						r.maxSigs = c
					}
				}
			}
		}
	}
	if !build {
		return
	}
	ri := m.allocRx()
	r := &m.rxs[ri]
	*r = reception{at: j, powerMw: p, rate: tx.frame.Rate, sig: tx.sig, failed: dst.tx != nil}
	if tx.sig {
		r.maxSigs = dst.combinedSigsNear(p)
	}
	dst.recs = append(dst.recs, liveRx{ri: ri, totMaxMw: tot, sigInterfMaxMw: sigInterf})
	tx.recs = append(tx.recs, ri)
}

// settle unlinks reception ri from its node when its frame ends and sets
// its worst interference: the maximum over its own segment and every later
// one, all of whose starts fell inside its air time. Its segment then merges
// into the node's previous reception, which was on the air for those starts
// too.
func (m *Medium) settle(ri int32) {
	r := &m.rxs[ri]
	ns := &m.nodes[r.at]
	i := 0
	for ns.recs[i].ri != ri {
		i++
	}
	own := ns.recs[i]
	tot, sigInterf := own.totMaxMw, own.sigInterfMaxMw
	for _, later := range ns.recs[i+1:] {
		if later.totMaxMw > tot {
			tot = later.totMaxMw
		}
		if later.sigInterfMaxMw > sigInterf {
			sigInterf = later.sigInterfMaxMw
		}
	}
	if i > 0 {
		prev := &ns.recs[i-1]
		if own.totMaxMw > prev.totMaxMw {
			prev.totMaxMw = own.totMaxMw
		}
		if own.sigInterfMaxMw > prev.sigInterfMaxMw {
			prev.sigInterfMaxMw = own.sigInterfMaxMw
		}
	}
	ns.recs = ns.recs[:i+copy(ns.recs[i:], ns.recs[i+1:])]

	// Orthogonal spreading: other signatures do not count as noise for a
	// signature frame, but the combination load of comparably strong ones
	// does (maxSigs).
	interf := sigInterf
	if !r.sig {
		interf = tot - r.powerMw + m.noiseMw
	}
	if interf < m.noiseMw { // guard against FP residue
		interf = m.noiseMw
	}
	r.interfMw = interf
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
				if r.src == tx.src {
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
		m.probe.TxEnd(&tx.frame, m.k.Now())
	}
	for _, ri := range tx.recs {
		m.settle(ri)
		r := &m.rxs[ri]
		ok := m.judge(r)
		if m.probe != nil {
			m.probe.RxOutcome(&tx.frame, r.at, ok, m.k.Now())
		}
		outcomes = append(outcomes, outcome{
			r: ri, at: r.at, ok: ok, sig: r.sig,
			det: SignatureDetection{Combined: r.maxSigs},
		})
	}
	m.notifyCarrier(carrier)
	m.pushCarrier(carrier)
	frame := &tx.frame
	for i := range outcomes {
		o := &outcomes[i]
		var det *SignatureDetection
		if o.sig {
			det = &o.det
		}
		m.nodes[o.at].listener.FrameReceived(frame, o.ok, det)
	}
	// Recycle only after every callback ran: listeners must never observe a
	// reused slot mid-notification.
	for _, o := range outcomes {
		m.rxFree = append(m.rxFree, o.r)
	}
	m.pushOutcomes(outcomes)
	m.releaseTx(tx)
}

// judge decides a settled reception's outcome at frame end.
func (m *Medium) judge(r *reception) bool {
	if !r.sig {
		return !r.failed && m.decodable(r.powerMw/r.interfMw, r.rate)
	}
	if r.failed || m.sigTh.below(r.powerMw/r.interfMw) {
		return false
	}
	p := m.cfg.Detector(r.maxSigs)
	return m.k.Rand().Float64() < p
}

// thresholdGuard is the relative half-width of the band around a linear
// threshold inside which decodable and below fall back to the dB
// comparison. Outside it the two comparisons cannot disagree: 1e-9 of S/I
// is 4.3e-9 dB, millions of times the rounding error of a logarithm or of
// the threshold's own Pow.
const thresholdGuard = 1e-9

// linThreshold is an SINR threshold in dB together with the linear S/I
// bounds that decide most comparisons against it without a logarithm.
type linThreshold struct {
	db     float64
	lo, hi float64 // linear S/I: below lo is under db, above hi is over it
}

func newLinThreshold(db float64) linThreshold {
	lin := math.Pow(10, db/10)
	return linThreshold{db: db, lo: lin * (1 - thresholdGuard), hi: lin * (1 + thresholdGuard)}
}

// below reports 10·log10(sir) < th.db, taking the logarithm only within
// thresholdGuard of the threshold (or for NaN).
func (th *linThreshold) below(sir float64) bool {
	switch {
	case sir < th.lo:
		return true
	case sir > th.hi:
		return false
	}
	return 10*math.Log10(sir) < th.db
}

type rateThreshold struct {
	rate Rate
	linThreshold
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
	m.thresholds = append(m.thresholds, rateThreshold{rate: rate, linThreshold: newLinThreshold(SNRThresholdDB(rate))})
	return &m.thresholds[len(m.thresholds)-1]
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
