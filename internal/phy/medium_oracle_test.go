package phy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// refMedium is the medium as it stood before receptions moved into an
// index-addressed arena: every frame start folds the node's current
// interference into every live reception there (refFold), receptions are
// pointers, and the signature decision takes a logarithm. It builds a
// reception under the same rule as Medium (addressed, signature or an
// overheard kind), so a fold-every-start reception exists exactly where
// Medium's does. It is kept as the oracle TestMediumMatchesFoldOracle checks
// Medium against. Pooling and the probe are left out; neither changes an
// outcome.
type refMedium struct {
	k       *sim.Kernel
	cfg     Config
	rssMw   [][]float64
	nodes   []refNode
	csMw    float64
	floorMw float64
	noiseMw float64
	// judged observes each reception right after it is judged.
	judged func(f *Frame, r *refRx, ok bool)
}

type refNode struct {
	listener   Listener
	overhears  KindSet
	totalMw    float64
	sigMw      float64
	activeSigs []refSig
	tx         *refTx
	busy       bool
	recs       []*refRx
}

type refSig struct {
	tx      *refTx
	powerMw float64
	n       int
}

type refTx struct {
	frame   *Frame
	src     NodeID
	powerMw []float64
	recs    []*refRx
	sig     bool
	sigN    int
}

type refRx struct {
	tx          *refTx
	at          NodeID
	powerMw     float64
	interfMaxMw float64
	maxSigs     int
	failed      bool
	det         SignatureDetection
}

func newRefMedium(k *sim.Kernel, rssDBm [][]float64, cfg Config) *refMedium {
	n := len(rssDBm)
	rssMw := make([][]float64, n)
	for i, row := range rssDBm {
		rssMw[i] = make([]float64, n)
		for j, dbm := range row {
			rssMw[i][j] = DBmToMw(dbm)
		}
	}
	return &refMedium{
		k: k, cfg: cfg, rssMw: rssMw, nodes: make([]refNode, n),
		csMw: DBmToMw(cfg.CSThreshDBm), floorMw: DBmToMw(cfg.DeliverFloorDBm), noiseMw: DBmToMw(cfg.NoiseDBm),
	}
}

func (m *refMedium) Register(n NodeID, l Listener, overhears KindSet) {
	m.nodes[n].listener, m.nodes[n].overhears = l, overhears
}
func (m *refMedium) Transmitting(n NodeID) bool { return m.nodes[n].tx != nil }
func (m *refMedium) Kernel() *sim.Kernel        { return m.k }
func (ns *refNode) combinedSigsNear(target float64) int {
	total := 0
	for _, r := range ns.activeSigs {
		if r.powerMw >= target/10 {
			total += r.n
		}
	}
	return total
}

func (m *refMedium) Transmit(src NodeID, f *Frame) {
	ns := &m.nodes[src]
	if ns.tx != nil {
		panic("refMedium: transmit while transmitting")
	}
	f.Src = src
	tx := &refTx{frame: f, src: src, powerMw: make([]float64, len(m.nodes))}
	ns.tx = tx
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
	var carrier []NodeID
	for j := range m.nodes {
		if NodeID(j) == src {
			continue
		}
		p := m.rssMw[src][j]
		tx.powerMw[j] = p
		dst := &m.nodes[j]
		dst.totalMw += p
		if sig {
			dst.sigMw += p
			dst.activeSigs = append(dst.activeSigs, refSig{tx: tx, powerMw: p, n: sigN})
		}
		for _, r := range dst.recs {
			m.refFold(r, dst)
		}
		wanted := sig || f.Dst == NodeID(j) || dst.overhears.Has(f.Kind)
		if dst.listener != nil && p >= m.floorMw && wanted {
			r := &refRx{tx: tx, at: NodeID(j), powerMw: p, failed: dst.tx != nil}
			m.refFold(r, dst)
			dst.recs = append(dst.recs, r)
			tx.recs = append(tx.recs, r)
		}
		if m.flipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	m.notify(carrier)
	m.k.After(f.AirTime(), func() { m.end(tx) }).SetSource(sim.SrcPHY)
}

// refFold is the fold every frame start applied to every live reception.
func (m *refMedium) refFold(r *refRx, dst *refNode) {
	var interf float64
	if r.tx.frame.Kind == Signature {
		interf = dst.totalMw - dst.sigMw + m.noiseMw
		if n := dst.combinedSigsNear(r.powerMw); n > r.maxSigs {
			r.maxSigs = n
		}
	} else {
		interf = dst.totalMw - r.powerMw + m.noiseMw
	}
	if interf < m.noiseMw {
		interf = m.noiseMw
	}
	if interf > r.interfMaxMw {
		r.interfMaxMw = interf
	}
}

func (m *refMedium) end(tx *refTx) {
	m.nodes[tx.src].tx = nil
	var carrier []NodeID
	for j := range m.nodes {
		if NodeID(j) == tx.src {
			continue
		}
		dst := &m.nodes[j]
		dst.totalMw -= tx.powerMw[j]
		if dst.totalMw < 0 {
			dst.totalMw = 0
		}
		if tx.sig {
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
		if m.flipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	type judged struct {
		r   *refRx
		ok  bool
		det *SignatureDetection
	}
	var outcomes []judged
	for _, r := range tx.recs {
		dst := &m.nodes[r.at]
		for i, x := range dst.recs {
			if x == r {
				dst.recs = append(dst.recs[:i], dst.recs[i+1:]...)
				break
			}
		}
		ok, det := m.judge(r)
		m.judged(tx.frame, r, ok)
		outcomes = append(outcomes, judged{r, ok, det})
	}
	m.notify(carrier)
	for _, o := range outcomes {
		m.nodes[o.r.at].listener.FrameReceived(tx.frame, o.ok, o.det)
	}
}

func (m *refMedium) judge(r *refRx) (bool, *SignatureDetection) {
	if r.tx.frame.Kind != Signature {
		return !r.failed && 10*math.Log10(r.powerMw/r.interfMaxMw) >= SNRThresholdDB(r.tx.frame.Rate), nil
	}
	sinr := 10 * math.Log10(r.powerMw/r.interfMaxMw)
	r.det = SignatureDetection{Combined: r.maxSigs}
	if r.failed || sinr < m.cfg.SigSINRdB {
		return false, &r.det
	}
	return m.k.Rand().Float64() < m.cfg.Detector(r.maxSigs), &r.det
}

func (m *refMedium) flipped(ns *refNode) bool {
	busy := ns.totalMw >= m.csMw
	if busy == ns.busy {
		return false
	}
	ns.busy = busy
	return ns.listener != nil
}

func (m *refMedium) notify(ids []NodeID) {
	for _, id := range ids {
		m.nodes[id].listener.CarrierChanged(m.nodes[id].busy)
	}
}

// radio is the surface of Medium and refMedium the differential scenario
// drives.
type radio interface {
	Register(NodeID, Listener, KindSet)
	Transmit(NodeID, *Frame)
	Transmitting(NodeID) bool
	Kernel() *sim.Kernel
}

// judgeRec is one judged reception: Medium's comes from its probe, the
// oracle's from its judged hook.
type judgeRec struct {
	at         sim.Time
	frame      int64
	node       NodeID
	ok         bool
	interfBits uint64
	maxSigs    int
}

// diffScenario is one random medium workload, generated from a seed and
// replayable on either medium. Frames are numbered through Frame.ObsSpan,
// which the medium never reads.
type diffScenario struct {
	seed  int64
	rss   [][]float64
	cfg   Config
	sends []diffSend
	// overhears is each node's registered set: every kind on even seeds,
	// a random set on odd ones.
	overhears []KindSet
}

type diffSend struct {
	at   sim.Time
	src  NodeID
	kind FrameKind
	size int // bytes, or combined signatures for Signature frames
	rate Rate
}

var diffRates = []Rate{Rate6, Rate12, Rate24, Rate54}

func newDiffScenario(seed int64) diffScenario {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(12)
	rss := make([][]float64, n)
	for i := range rss {
		rss[i] = make([]float64, n)
		for j := range rss[i] {
			if i != j {
				rss[i][j] = -40 - 60*rng.Float64() // -40..-100 dBm, asymmetric
			}
		}
	}
	cfg := DefaultConfig()
	cfg.SigSINRdB = []float64{-10, -3, 0, 2.5}[rng.Intn(4)]
	cfg.Detector = func(c int) float64 {
		if c <= 2 {
			return 1
		}
		return 0.6
	}
	sc := diffScenario{seed: seed, rss: rss, cfg: cfg}
	for i, sends := 0, 60+rng.Intn(140); i < sends; i++ {
		s := diffSend{
			at:   sim.Time(rng.Int63n(int64(20 * sim.Millisecond))),
			src:  NodeID(rng.Intn(n)),
			rate: diffRates[rng.Intn(len(diffRates))],
		}
		switch rng.Intn(4) {
		case 0:
			s.kind, s.size = Ack, AckBytes
		case 1:
			s.kind, s.size = Signature, 1+rng.Intn(5)
		default:
			s.kind, s.size = Data, 40+rng.Intn(1460)
		}
		sc.sends = append(sc.sends, s)
	}
	for range rss {
		set := AllKinds
		if seed%2 == 1 {
			set = KindSet(rng.Intn(1 << (FakeHeader + 1)))
		}
		sc.overhears = append(sc.overhears, set)
	}
	return sc
}

// reactor is a scenario node's listener. It logs every callback and reacts
// the way MACs do, from inside the callback: it acknowledges decoded data
// addressed to it, answers some signatures with one of its own, and
// sometimes seizes an idle channel. Its choices come from its own seeded
// source, so equal callback sequences produce equal reactions. The nodes
// share a budget of reactions, which keeps reaction chains finite.
type reactor struct {
	id     NodeID
	m      radio
	rng    *rand.Rand
	log    *[]string
	budget *int
	send   func(src NodeID, f *Frame)
}

// react reports whether the node may transmit in reaction now, and spends
// one unit of the budget if so.
func (r *reactor) react() bool {
	if *r.budget <= 0 || r.m.Transmitting(r.id) {
		return false
	}
	*r.budget--
	return true
}

func (r *reactor) CarrierChanged(busy bool) {
	*r.log = append(*r.log, fmt.Sprintf("%v cs %d %v", r.m.Kernel().Now(), r.id, busy))
	if !busy && r.rng.Intn(8) == 0 && r.react() {
		r.send(r.id, &Frame{Kind: Data, Dst: Broadcast, Bytes: 100, Rate: Rate24})
	}
}

func (r *reactor) FrameReceived(f *Frame, ok bool, det *SignatureDetection) {
	c := -1
	if det != nil {
		c = det.Combined
	}
	*r.log = append(*r.log, fmt.Sprintf("%v rx %d frame %d ok %v det %d", r.m.Kernel().Now(), r.id, f.ObsSpan, ok, c))
	switch {
	case ok && f.Kind == Data && f.Dst == r.id && r.react():
		r.send(r.id, &Frame{Kind: Ack, Dst: f.Src, Bytes: AckBytes, Rate: f.Rate})
	case f.Kind == Signature && r.rng.Intn(6) == 0 && r.react():
		r.send(r.id, &Frame{Kind: Signature, Dst: Broadcast, Duration: SignatureDuration,
			Payload: &SignaturePayload{Sigs: []int{int(r.id), int(f.Src)}}})
	}
}

// run replays the scenario on m and returns the listener log and the judged
// receptions. hook installs the medium's judge observer given the function
// that numbers frames.
func (sc diffScenario) run(m radio, judged *[]judgeRec, hook func(record func(f *Frame, node NodeID, ok bool, interf float64, maxSigs int))) []string {
	var log []string
	var next int64
	budget := len(sc.sends)
	send := func(src NodeID, f *Frame) {
		next++
		f.ObsSpan = next
		m.Transmit(src, f)
	}
	hook(func(f *Frame, node NodeID, ok bool, interf float64, maxSigs int) {
		*judged = append(*judged, judgeRec{m.Kernel().Now(), f.ObsSpan, node, ok, math.Float64bits(interf), maxSigs})
	})
	for i := range sc.rss {
		m.Register(NodeID(i), &reactor{id: NodeID(i), m: m, rng: rand.New(rand.NewSource(sc.seed*100 + int64(i))), log: &log, budget: &budget, send: send}, sc.overhears[i])
	}
	for _, s := range sc.sends {
		s := s
		m.Kernel().At(s.at, func() {
			if m.Transmitting(s.src) {
				return
			}
			f := &Frame{Kind: s.kind, Dst: NodeID((int(s.src) + 1) % len(sc.rss)), Bytes: s.size, Rate: s.rate}
			if s.kind == Signature {
				sigs := make([]int, s.size)
				for i := range sigs {
					sigs[i] = i
				}
				f.Dst, f.Bytes, f.Duration = Broadcast, 0, SignatureDuration
				f.Payload = &SignaturePayload{Sigs: sigs}
			}
			send(s.src, f)
		})
	}
	m.Kernel().Run()
	return log
}

// probeFunc adapts a function to Probe's RxOutcome; the other callbacks
// are ignored.
type probeFunc func(f *Frame, at NodeID, ok bool)

func (probeFunc) TxStart(*Frame, sim.Time)                             {}
func (probeFunc) TxEnd(*Frame, sim.Time)                               {}
func (p probeFunc) RxOutcome(f *Frame, at NodeID, ok bool, _ sim.Time) { p(f, at, ok) }

// recordingMedium wraps Medium so the probe can find the reception it is
// told about: it maps the frame copy the probe is handed to its
// transmission.
type recordingMedium struct {
	*Medium
	txOf map[*Frame]*transmission
}

func (m recordingMedium) Transmit(src NodeID, f *Frame) {
	m.Medium.Transmit(src, f)
	tx := m.nodes[src].tx
	m.txOf[&tx.frame] = tx
}

// TestMediumMatchesFoldOracle replays random workloads — random RSS,
// overlapping Data, Ack and Signature frames, half-duplex starts, listeners
// that transmit from inside their callbacks and, on odd seeds, random
// overheard-kind sets — on Medium and on
// the fold-every-start oracle, and requires the same callbacks in the same
// order, the same decode outcomes, bit-identical worst interference and the
// same combined-signature peaks for every reception.
func TestMediumMatchesFoldOracle(t *testing.T) {
	var receptions, sigs, fails int
	for seed := int64(1); seed <= 60; seed++ {
		sc := newDiffScenario(seed)

		var got, want []judgeRec
		m := recordingMedium{NewMedium(sim.New(seed), sc.rss, sc.cfg), map[*Frame]*transmission{}}
		gotLog := sc.run(m, &got, func(record func(*Frame, NodeID, bool, float64, int)) {
			m.SetProbe(probeFunc(func(f *Frame, at NodeID, ok bool) {
				for _, ri := range m.txOf[f].recs {
					if r := m.rxs[ri]; r.at == at {
						record(f, at, ok, r.interfMw, r.maxSigs)
						return
					}
				}
				t.Fatalf("seed %d: no reception of frame %d at node %d", seed, f.ObsSpan, at)
			}))
		})
		ref := newRefMedium(sim.New(seed), sc.rss, sc.cfg)
		wantLog := sc.run(ref, &want, func(record func(*Frame, NodeID, bool, float64, int)) {
			ref.judged = func(f *Frame, r *refRx, ok bool) { record(f, r.at, ok, r.interfMaxMw, r.maxSigs) }
		})

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d receptions judged, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: reception %d = %+v, oracle %+v", seed, i, got[i], want[i])
			}
			if got[i].maxSigs > 0 {
				sigs++
			}
			if !got[i].ok {
				fails++
			}
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			for i := range gotLog {
				if i >= len(wantLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("seed %d: callback %d = %q, oracle %q", seed, i, gotLog[i], wantLog[min(i, len(wantLog)-1)])
				}
			}
			t.Fatalf("seed %d: %d callbacks, oracle %d", seed, len(gotLog), len(wantLog))
		}
		for j := range m.nodes {
			if len(m.nodes[j].recs) != 0 {
				t.Fatalf("seed %d: node %d ends with %d live receptions", seed, j, len(m.nodes[j].recs))
			}
		}
		if len(m.rxFree) != len(m.rxs) {
			t.Fatalf("seed %d: %d of %d arena slots free after the run", seed, len(m.rxFree), len(m.rxs))
		}
		receptions += len(got)
	}
	// The workload must reach both outcomes and the signature paths.
	if receptions < 10000 || sigs < 1000 || fails < 1000 || receptions-fails < 1000 {
		t.Fatalf("weak workload: %d receptions, %d with signature load, %d failed", receptions, sigs, fails)
	}
	t.Logf("%d receptions, %d with signature load, %d failed", receptions, sigs, fails)
}
