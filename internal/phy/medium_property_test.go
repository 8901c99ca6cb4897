package phy

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// countingListener tallies callbacks without reacting.
type countingListener struct {
	frames  int
	oks     int
	carrier int
}

func (c *countingListener) CarrierChanged(bool) { c.carrier++ }

// countingProbe counts the medium's transmissions and its judged receptions
// by outcome.
type countingProbe struct {
	transmissions, delivered, corrupted int
}

func (p *countingProbe) TxStart(*Frame, sim.Time) { p.transmissions++ }
func (p *countingProbe) TxEnd(*Frame, sim.Time)   {}
func (p *countingProbe) RxOutcome(_ *Frame, _ NodeID, ok bool, _ sim.Time) {
	if ok {
		p.delivered++
	} else {
		p.corrupted++
	}
}
func (c *countingListener) FrameReceived(_ *Frame, ok bool, _ *SignatureDetection) {
	c.frames++
	if ok {
		c.oks++
	}
}

// fuzzSend is one transmission of a random trial.
type fuzzSend struct {
	at    sim.Time
	src   NodeID
	kind  FrameKind
	dst   NodeID
	bytes int
}

// frame builds the transmission's frame, numbered n through ObsSpan (which
// the medium never reads).
func (s fuzzSend) frame(n int64) *Frame {
	f := &Frame{Kind: s.kind, Dst: s.dst, Bytes: s.bytes, Rate: Rate12, ObsSpan: n}
	if s.kind == Signature {
		f.Dst = Broadcast
		f.Duration = SignatureDuration
		f.Payload = &SignaturePayload{Sigs: []int{int(s.src)}}
	}
	return f
}

// fuzzTrial draws a random trial: 3–8 nodes with symmetric RSS and 40
// staggered transmissions. A plain trial broadcasts Data and Signature
// frames; a mixed one draws every frame kind and addresses three frames in
// four to another node.
func fuzzTrial(rng *rand.Rand, mixed bool) (rss [][]float64, sends []fuzzSend) {
	n := 3 + rng.Intn(6)
	rss = make([][]float64, n)
	for i := range rss {
		rss[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := -55 - rng.Float64()*45 // -55..-100 dBm
			rss[i][j] = v
			rss[j][i] = v
		}
	}
	for i := 0; i < 40; i++ {
		s := fuzzSend{
			at:    sim.Time(rng.Int63n(int64(8 * sim.Millisecond))),
			src:   NodeID(rng.Intn(n)),
			bytes: 64 + rng.Intn(1400),
			kind:  Data,
			dst:   Broadcast,
		}
		if rng.Intn(5) == 0 {
			s.kind = Signature
		}
		if mixed {
			s.kind = FrameKind(rng.Intn(int(FakeHeader) + 1))
			if rng.Intn(4) > 0 {
				s.dst = (s.src + 1 + NodeID(rng.Intn(n-1))) % NodeID(n)
			}
		}
		sends = append(sends, s)
	}
	return rss, sends
}

// schedule queues the trial's transmissions on m; a sender still busy at
// fire time skips its frame (as a sane MAC would). It returns the count of
// frames actually sent, final once the kernel drains.
func schedule(k *sim.Kernel, m *Medium, sends []fuzzSend) *int {
	sent := new(int)
	for _, s := range sends {
		s := s
		k.At(s.at, func() {
			if m.Transmitting(s.src) {
				return
			}
			*sent++
			m.Transmit(s.src, s.frame(int64(*sent)))
		})
	}
	return sent
}

// TestMediumInvariantsUnderFuzz fires random overlapping transmissions from
// random nodes and checks the medium's invariants afterwards: carrier sensing
// settles to idle everywhere, nobody is left transmitting, and every
// transmission produced exactly one end event (the kernel drains).
func TestMediumInvariantsUnderFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		rss, sends := fuzzTrial(rng, false)
		n := len(rss)
		k := sim.New(int64(trial))
		m := NewMedium(k, rss, DefaultConfig())
		var c countingProbe
		m.SetProbe(&c)
		listeners := make([]*countingListener, n)
		for i := range listeners {
			listeners[i] = &countingListener{}
			m.Register(NodeID(i), listeners[i], AllKinds)
		}
		sent := schedule(k, m, sends)
		k.Run()

		if c.transmissions != *sent {
			t.Fatalf("trial %d: %d transmissions recorded, %d sent", trial, c.transmissions, *sent)
		}
		for i := 0; i < n; i++ {
			if m.Transmitting(NodeID(i)) {
				t.Fatalf("trial %d: node %d still transmitting after drain", trial, i)
			}
			if m.Busy(NodeID(i)) {
				t.Fatalf("trial %d: node %d still senses busy after drain", trial, i)
			}
		}
		// Outcome accounting: delivered + corrupted = all receptions.
		var frames int
		for _, l := range listeners {
			frames += l.frames
		}
		if c.delivered+c.corrupted != frames {
			t.Fatalf("trial %d: delivered %d + corrupted %d != callbacks %d",
				trial, c.delivered, c.corrupted, frames)
		}
		// Carrier callbacks pair up: every busy has a matching idle.
		for i, l := range listeners {
			if l.carrier%2 != 0 {
				t.Fatalf("trial %d: node %d saw %d carrier transitions (odd)", trial, i, l.carrier)
			}
		}
	}
}

// rxRec is one FrameReceived call; combined is -1 when det was nil.
type rxRec struct {
	at       sim.Time
	node     NodeID
	frame    int64
	kind     FrameKind
	dst      NodeID
	ok       bool
	combined int
}

// csRec is one CarrierChanged call.
type csRec struct {
	at   sim.Time
	node NodeID
	busy bool
}

// logListener appends node id's callbacks, in call order, to shared logs.
type logListener struct {
	id NodeID
	k  *sim.Kernel
	rx *[]rxRec
	cs *[]csRec
}

func (l logListener) CarrierChanged(busy bool) {
	*l.cs = append(*l.cs, csRec{l.k.Now(), l.id, busy})
}

func (l logListener) FrameReceived(f *Frame, ok bool, det *SignatureDetection) {
	c := -1
	if det != nil {
		c = det.Combined
	}
	*l.rx = append(*l.rx, rxRec{l.k.Now(), l.id, f.ObsSpan, f.Kind, f.Dst, ok, c})
}

// runLogged replays a trial with node i registered to overhear sets[i], and
// returns every listener callback and the kernel's next random draw.
func runLogged(seed int64, rss [][]float64, sends []fuzzSend, sets []KindSet) (rx []rxRec, cs []csRec, next int64) {
	k := sim.New(seed)
	m := NewMedium(k, rss, DefaultConfig())
	for i := range rss {
		m.Register(NodeID(i), logListener{NodeID(i), k, &rx, &cs}, sets[i])
	}
	schedule(k, m, sends)
	k.Run()
	return rx, cs, k.Rand().Int63()
}

// TestReceptionFilterMatchesUnfiltered runs each random trial twice: once
// with every listener overhearing every kind, once with random overheard
// sets. The filtered run's FrameReceived calls must be exactly the
// unfiltered run's restricted to addressed frames, signatures and the
// declared kinds, each with the same outcome and signature detail; the
// carrier notifications and the kernel's next random draw must match too.
// Skipping a reception therefore changes no other reception's worst-case
// interference, and signatures draw from the random source at every
// listening node whatever it overhears.
func TestReceptionFilterMatchesUnfiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var kept, dropped, sigsUnasked int
	for trial := 0; trial < 60; trial++ {
		rss, sends := fuzzTrial(rng, true)
		all := make([]KindSet, len(rss))
		sets := make([]KindSet, len(rss))
		for i := range sets {
			all[i] = AllKinds
			sets[i] = KindSet(rng.Intn(1 << (FakeHeader + 1)))
		}
		seed := int64(trial)
		fullRx, fullCS, fullNext := runLogged(seed, rss, sends, all)
		gotRx, gotCS, gotNext := runLogged(seed, rss, sends, sets)

		var want []rxRec
		for _, r := range fullRx {
			if r.kind == Signature || r.dst == r.node || sets[r.node].Has(r.kind) {
				want = append(want, r)
				if r.kind == Signature && !sets[r.node].Has(Signature) {
					sigsUnasked++
				}
			} else {
				dropped++
			}
		}
		kept += len(want)
		if !reflect.DeepEqual(gotRx, want) {
			for i := range gotRx {
				if i >= len(want) || gotRx[i] != want[i] {
					t.Fatalf("trial %d: call %d = %+v, unfiltered %+v", trial, i, gotRx[i], want[min(i, len(want)-1)])
				}
			}
			t.Fatalf("trial %d: %d calls, unfiltered run restricted %d", trial, len(gotRx), len(want))
		}
		if !reflect.DeepEqual(gotCS, fullCS) {
			t.Fatalf("trial %d: carrier notifications differ from the unfiltered run", trial)
		}
		if gotNext != fullNext {
			t.Fatalf("trial %d: next random draw %d, unfiltered %d", trial, gotNext, fullNext)
		}
	}
	// The filter must have dropped calls, and signatures must have reached
	// nodes whose set leaves them out.
	if kept < 1000 || dropped < 1000 || sigsUnasked < 100 {
		t.Fatalf("weak workload: %d calls kept, %d dropped, %d signatures at nodes not overhearing them",
			kept, dropped, sigsUnasked)
	}
	t.Logf("%d calls kept, %d dropped, %d signatures at nodes not overhearing them", kept, dropped, sigsUnasked)
}

// TestSignatureDetectionFields checks that the detection detail is populated
// for signature frames and absent for data frames.
func TestSignatureDetectionFields(t *testing.T) {
	k := sim.New(1)
	m := NewMedium(k, [][]float64{{0, -60}, {-60, 0}}, DefaultConfig())
	// The detail pointer is only valid during the callback (the reception it
	// lives in recycles afterwards), so snapshot the value.
	var sigDet SignatureDetection
	var sawSig, dataHadDet bool
	var got int
	m.Register(1, listenerFunc(func(f *Frame, ok bool, det *SignatureDetection) {
		got++
		if f.Kind == Signature {
			if det != nil {
				sigDet, sawSig = *det, true
			}
		} else if det != nil {
			dataHadDet = true
		}
	}), AllKinds)
	m.Register(0, listenerFunc(func(*Frame, bool, *SignatureDetection) {}), AllKinds)
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Signature, Dst: Broadcast, Duration: SignatureDuration,
			Payload: &SignaturePayload{Sigs: []int{1, 2}}})
	})
	k.At(sim.Millisecond, func() {
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 100, Rate: Rate12})
	})
	k.Run()
	if got != 2 {
		t.Fatalf("callbacks = %d", got)
	}
	if !sawSig || sigDet.Combined != 2 {
		t.Errorf("signature detail = %+v (seen %v)", sigDet, sawSig)
	}
	if dataHadDet {
		t.Error("data frame carried signature detail")
	}
}

// listenerFunc adapts a function to the Listener interface.
type listenerFunc func(*Frame, bool, *SignatureDetection)

func (f listenerFunc) CarrierChanged(bool) {}
func (f listenerFunc) FrameReceived(fr *Frame, ok bool, det *SignatureDetection) {
	f(fr, ok, det)
}
