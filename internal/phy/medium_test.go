package phy

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// recorder is a Listener that stores everything it observes. The frame and
// the detection detail are copied: their pointers are only valid during the
// callback.
type recorder struct {
	frames  []Frame
	oks     []bool
	dets    []SignatureDetection // zero value for non-signature frames
	carrier []bool
}

// SignatureDuration is one length-127 Gold code at 20 MHz BPSK
// (127 chips / 20 Mcps = 6.35 µs, paper §3.2).
var SignatureDuration = sim.Micros(6.35)

// AllKinds holds every frame kind.
const AllKinds = ^KindSet(0)

// Kernel returns the simulation kernel driving the medium.
func (m *Medium) Kernel() *sim.Kernel { return m.k }

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

func (r *recorder) CarrierChanged(busy bool) { r.carrier = append(r.carrier, busy) }
func (r *recorder) FrameReceived(f *Frame, ok bool, det *SignatureDetection) {
	r.frames = append(r.frames, *f)
	r.oks = append(r.oks, ok)
	var d SignatureDetection
	if det != nil {
		d = *det
	}
	r.dets = append(r.dets, d)
}

// uniformRSS builds an n-node matrix where every pair hears the other at the
// given dBm.
func uniformRSS(n int, dbm float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = dbm
			} else {
				m[i][j] = 0
			}
		}
	}
	return m
}

func newTestMedium(t *testing.T, rss [][]float64) (*sim.Kernel, *Medium, []*recorder) {
	t.Helper()
	k := sim.New(1)
	m := NewMedium(k, rss, DefaultConfig())
	recs := make([]*recorder, len(rss))
	for i := range recs {
		recs[i] = &recorder{}
		m.Register(NodeID(i), recs[i], AllKinds)
	}
	return k, m, recs
}

func TestAirtime(t *testing.T) {
	// 512 B at 12 Mbps: 16+6+4096 = 4118 bits, NDBPS 48 -> 86 symbols.
	if got, want := Airtime(512, Rate12), sim.Micros(20+86*4); got != want {
		t.Errorf("Airtime(512,12) = %v, want %v", got, want)
	}
	// ACK: 14 B -> 134 bits -> 3 symbols at 12 Mbps.
	if got, want := Airtime(AckBytes, Rate12), sim.Micros(32); got != want {
		t.Errorf("Airtime(14,12) = %v, want %v", got, want)
	}
	// 1500 B at 54 Mbps: 12022 bits / 216 = 56 symbols.
	if got, want := Airtime(1500, Rate54), sim.Micros(20+56*4); got != want {
		t.Errorf("Airtime(1500,54) = %v, want %v", got, want)
	}
	if Airtime(100, Rate6) <= Airtime(100, Rate54) {
		t.Error("lower rate should take longer")
	}
}

func TestSNRThresholds(t *testing.T) {
	rates := []Rate{Rate6, Rate9, Rate12, Rate18, Rate24, Rate36, Rate48, Rate54}
	prev := 0.0
	for _, r := range rates {
		th := SNRThresholdDB(r)
		if th <= prev {
			t.Errorf("threshold not increasing at rate %v: %v <= %v", r, th, prev)
		}
		prev = th
	}
	if SNRThresholdDB(Rate6) != 4 {
		t.Errorf("6 Mbps threshold = %v, want 4 (paper §3.1)", SNRThresholdDB(Rate6))
	}
	if got := SNRThresholdDB(Rate(0.5)); got != 4 {
		t.Errorf("sub-6Mbps fallback = %v, want 4", got)
	}
}

func TestDBmConversions(t *testing.T) {
	if got := DBmToMw(0); got != 1 {
		t.Errorf("DBmToMw(0) = %v", got)
	}
	if got := DBmToMw(-30); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("DBmToMw(-30) = %v", got)
	}
	for _, dbm := range []float64{-94, -85, -60, 0, 20} {
		if got := MwToDBm(DBmToMw(dbm)); math.Abs(got-dbm) > 1e-9 {
			t.Errorf("roundtrip %v -> %v", dbm, got)
		}
	}
}

func TestCleanDelivery(t *testing.T) {
	k, m, recs := newTestMedium(t, uniformRSS(2, -60))
	var c countingProbe
	m.SetProbe(&c)
	f := &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12}
	k.At(0, func() { m.Transmit(0, f) })
	k.Run()
	if len(recs[1].frames) != 1 || !recs[1].oks[0] {
		t.Fatalf("node 1: frames=%d oks=%v", len(recs[1].frames), recs[1].oks)
	}
	if len(recs[0].frames) != 0 {
		t.Fatal("sender received its own frame")
	}
	if c.delivered != 1 || c.corrupted != 0 {
		t.Fatalf("counters: delivered=%d corrupted=%d", c.delivered, c.corrupted)
	}
}

// frameProbe records a copy of the frame every probe callback is handed.
type frameProbe struct{ log *[]Frame }

func (p frameProbe) TxStart(f *Frame, _ sim.Time)                     { *p.log = append(*p.log, *f) }
func (p frameProbe) TxEnd(f *Frame, _ sim.Time)                       { *p.log = append(*p.log, *f) }
func (p frameProbe) RxOutcome(f *Frame, _ NodeID, _ bool, _ sim.Time) { *p.log = append(*p.log, *f) }

// TestTransmitCopiesFrame: Transmit puts a copy of the caller's frame on the
// air. Changing the caller's Frame right after Transmit changes nothing a
// listener or the probe sees, the caller's Src stays as it was, and a frame
// pointer kept past FrameReceived reads the zero Frame once the medium has
// recycled the transmission.
func TestTransmitCopiesFrame(t *testing.T) {
	k := sim.New(1)
	m := NewMedium(k, uniformRSS(3, -60), DefaultConfig())
	var seen, probed []Frame
	var kept *Frame
	m.Register(1, listenerFunc(func(f *Frame, _ bool, _ *SignatureDetection) {
		seen = append(seen, *f)
		kept = f
	}), AllKinds)
	m.SetProbe(frameProbe{&probed})
	payload := &SignaturePayload{SlotHint: 5}
	f := &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12, Payload: payload, Handle: 7, ObsSpan: 3}
	want := *f
	want.Src = 2
	k.At(0, func() {
		m.Transmit(2, f)
		*f = Frame{Kind: Ack, Dst: 0, Bytes: AckBytes, Rate: Rate6, Handle: 9, ObsSpan: 4}
	})
	k.Run()
	if len(seen) != 1 || seen[0] != want {
		t.Fatalf("listener saw %+v, want [%+v]", seen, want)
	}
	if len(probed) != 3 {
		t.Fatalf("probe saw %d frames, want TxStart, TxEnd and one RxOutcome", len(probed))
	}
	for i, p := range probed {
		if p != want {
			t.Errorf("probe callback %d saw %+v, want %+v", i, p, want)
		}
	}
	if f.Src != 0 {
		t.Errorf("Transmit set the caller's Src to %d", f.Src)
	}
	if *kept != (Frame{}) {
		t.Errorf("frame kept past FrameReceived reads %+v after the transmission was recycled, want the zero Frame", *kept)
	}
}

func TestDeliveryTiming(t *testing.T) {
	k, m, _ := newTestMedium(t, uniformRSS(2, -60))
	f := &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12}
	var endAt sim.Time
	m2 := m
	k.At(0, func() { m2.Transmit(0, f) })
	k.At(0, func() {}) // noop to keep kernel running
	k.Run()
	endAt = k.Now()
	if endAt != f.AirTime() {
		t.Fatalf("frame ended at %v, want %v", endAt, f.AirTime())
	}
}

func TestCollisionBothFail(t *testing.T) {
	// Three nodes all at -60 dBm of each other; 0 and 2 transmit to 1
	// simultaneously with equal power: SINR ~ 0 dB, both frames fail.
	k, m, recs := newTestMedium(t, uniformRSS(3, -60))
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
		m.Transmit(2, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
	})
	k.Run()
	if len(recs[1].frames) != 2 {
		t.Fatalf("node 1 saw %d frames", len(recs[1].frames))
	}
	for i, ok := range recs[1].oks {
		if ok {
			t.Errorf("frame %d decoded despite equal-power collision", i)
		}
	}
}

func TestCapture(t *testing.T) {
	// Strong frame (-50 dBm) vs weak interferer (-80 dBm): 30 dB SINR, the
	// strong frame survives, the weak one dies.
	rss := uniformRSS(3, -60)
	rss[0][1] = -50
	rss[2][1] = -80
	k, m, recs := newTestMedium(t, rss)
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
		m.Transmit(2, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
	})
	k.Run()
	okByPower := map[float64]bool{}
	for i, f := range recs[1].frames {
		okByPower[rss[f.Src][1]] = recs[1].oks[i]
	}
	if !okByPower[-50] {
		t.Error("strong frame not captured")
	}
	if okByPower[-80] {
		t.Error("weak frame decoded under 30 dB stronger interference")
	}
}

func TestLateInterfererCorruptsInFlightFrame(t *testing.T) {
	k, m, recs := newTestMedium(t, uniformRSS(3, -60))
	f := &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12}
	k.At(0, func() { m.Transmit(0, f) })
	// Interferer starts halfway through the frame.
	k.At(f.AirTime()/2, func() {
		m.Transmit(2, &Frame{Kind: Data, Dst: 1, Bytes: 64, Rate: Rate12})
	})
	k.Run()
	for i, fr := range recs[1].frames {
		if fr.Src == 0 && recs[1].oks[i] {
			t.Error("frame survived a mid-flight equal-power collision")
		}
	}
}

func TestHalfDuplex(t *testing.T) {
	k, m, recs := newTestMedium(t, uniformRSS(2, -50))
	// Node 1 starts transmitting while node 0's frame is in flight toward it.
	f := &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12}
	k.At(0, func() { m.Transmit(0, f) })
	k.At(10*sim.Microsecond, func() {
		m.Transmit(1, &Frame{Kind: Data, Dst: 0, Bytes: 64, Rate: Rate12})
	})
	k.Run()
	for i, fr := range recs[1].frames {
		if fr.Src == 0 && recs[1].oks[i] {
			t.Error("node decoded a frame while transmitting")
		}
	}
	// Node 0's reception of node 1's frame also fails: node 0 was
	// transmitting when it started.
	for i, fr := range recs[0].frames {
		if fr.Src == 1 && recs[0].oks[i] {
			t.Error("transmitter decoded an overlapping inbound frame")
		}
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	k, m, _ := newTestMedium(t, uniformRSS(2, -50))
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
		defer func() {
			if recover() == nil {
				t.Error("double transmit did not panic")
			}
		}()
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 64, Rate: Rate12})
	})
	k.Run()
}

func TestCarrierSenseNotifications(t *testing.T) {
	k, m, recs := newTestMedium(t, uniformRSS(2, -60)) // above CS threshold
	f := &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12}
	k.At(0, func() { m.Transmit(0, f) })
	k.Run()
	if len(recs[1].carrier) != 2 || !recs[1].carrier[0] || recs[1].carrier[1] {
		t.Fatalf("carrier transitions at node 1 = %v, want [true false]", recs[1].carrier)
	}
	if len(recs[0].carrier) != 0 {
		t.Fatalf("sender saw its own carrier: %v", recs[0].carrier)
	}
}

func TestCarrierBelowThresholdSilent(t *testing.T) {
	// -90 dBm is below the -85 CS threshold: no carrier events, but the frame
	// is still delivered (its SNR is 4 dB, enough for 6 Mbps but the frame is
	// sent at 12, so it arrives corrupted).
	k, m, recs := newTestMedium(t, uniformRSS(2, -90))
	k.At(0, func() { m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12}) })
	k.Run()
	if len(recs[1].carrier) != 0 {
		t.Fatalf("carrier events for sub-threshold signal: %v", recs[1].carrier)
	}
	if len(recs[1].frames) != 1 || recs[1].oks[0] {
		t.Fatalf("frames=%d oks=%v, want delivered-but-corrupt", len(recs[1].frames), recs[1].oks)
	}
}

func TestBusyAndHears(t *testing.T) {
	rss := uniformRSS(3, -60)
	rss[0][2] = -92 // 2 cannot sense 0
	rss[2][0] = -92
	k, m, _ := newTestMedium(t, rss)
	if m.Hears(0, 2) || !m.Hears(0, 1) {
		t.Fatal("Hears misclassifies")
	}
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
	})
	k.At(sim.Microsecond, func() {
		if !m.Busy(1) {
			t.Error("node 1 should sense busy")
		}
		if m.Busy(2) {
			t.Error("node 2 senses a hidden transmitter")
		}
		if !m.Busy(0) {
			t.Error("a transmitting node must report busy")
		}
		if !m.Transmitting(0) || m.Transmitting(1) {
			t.Error("Transmitting misreports")
		}
	})
	k.Run()
}

func TestWeakInterferenceStillCounts(t *testing.T) {
	// Signal at 7 dB SNR exactly meets the 12 Mbps threshold; an interferer
	// below the delivery floor still raises the noise enough to kill it.
	rss := uniformRSS(3, -95)
	rss[0][1] = -87 // SNR 7 dB
	rss[2][1] = -95 // below deliver floor (-94) but real energy
	k, m, recs := newTestMedium(t, rss)
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
		m.Transmit(2, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
	})
	k.Run()
	var sawStrong bool
	for i, f := range recs[1].frames {
		if f.Src == 0 {
			sawStrong = true
			if recs[1].oks[i] {
				t.Error("borderline frame survived sub-floor interference")
			}
		}
		if f.Src == 2 {
			t.Error("sub-floor frame should not be delivered at all")
		}
	}
	if !sawStrong {
		t.Fatal("strong frame never delivered")
	}
}

func TestInRange(t *testing.T) {
	rss := uniformRSS(2, -87) // SNR 7
	_, m, _ := newTestMedium(t, rss)
	if !m.InRange(0, 1, Rate12) {
		t.Error("SNR 7 should decode 12 Mbps")
	}
	if m.InRange(0, 1, Rate18) {
		t.Error("SNR 7 should not decode 18 Mbps")
	}
	if m.SNRdB(0, 1) != 7 {
		t.Errorf("SNRdB = %v", m.SNRdB(0, 1))
	}
}

func TestSignatureSurvivesSignatureCollision(t *testing.T) {
	// Two triggers carrying ≤4 combined signatures overlap: both detected.
	k, m, recs := newTestMedium(t, uniformRSS(3, -60))
	sig := func(ids ...int) *Frame {
		return &Frame{Kind: Signature, Dst: Broadcast, Duration: SignatureDuration,
			Payload: &SignaturePayload{Sigs: ids}}
	}
	k.At(0, func() {
		m.Transmit(0, sig(1, 2))
		m.Transmit(2, sig(3, 4))
	})
	k.Run()
	if len(recs[1].frames) != 2 {
		t.Fatalf("node 1 saw %d signature frames", len(recs[1].frames))
	}
	for i, ok := range recs[1].oks {
		if !ok {
			t.Errorf("signature frame %d lost in a 4-combined collision (det=%+v)",
				i, recs[1].dets[i])
		}
		if recs[1].dets[i].Combined != 4 {
			t.Errorf("combined = %d, want 4", recs[1].dets[i].Combined)
		}
	}
}

func TestSignatureOverloadDetectionDegrades(t *testing.T) {
	// Detector that refuses anything over 4 combined: with two triggers of 3
	// signatures each (6 in the air), detection must fail.
	cfg := DefaultConfig()
	cfg.Detector = func(n int) float64 {
		if n <= 4 {
			return 1
		}
		return 0
	}
	k := sim.New(1)
	m := NewMedium(k, uniformRSS(3, -60), cfg)
	rec := &recorder{}
	m.Register(1, rec, AllKinds)
	m.Register(0, &recorder{}, AllKinds)
	m.Register(2, &recorder{}, AllKinds)
	sig := func(ids ...int) *Frame {
		return &Frame{Kind: Signature, Dst: Broadcast, Duration: SignatureDuration,
			Payload: &SignaturePayload{Sigs: ids}}
	}
	k.At(0, func() {
		m.Transmit(0, sig(1, 2, 3))
		m.Transmit(2, sig(4, 5, 6))
	})
	k.Run()
	for i, ok := range rec.oks {
		if ok {
			t.Errorf("frame %d detected with 6 combined signatures", i)
		}
		if rec.dets[i].Combined != 6 {
			t.Errorf("combined = %d, want 6", rec.dets[i].Combined)
		}
	}
}

func TestSignatureKilledByStrongData(t *testing.T) {
	// A data frame 15 dB above the signature exceeds the -10 dB correlator
	// margin… it should NOT: -15 dB SINR < -10 dB threshold -> lost.
	rss := uniformRSS(3, -60)
	rss[0][1] = -75 // signature source, weak
	rss[2][1] = -60 // data interferer, strong
	k, m, recs := newTestMedium(t, rss)
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Signature, Dst: Broadcast, Duration: SignatureDuration,
			Payload: &SignaturePayload{Sigs: []int{1}}})
		m.Transmit(2, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
	})
	k.Run()
	for i, f := range recs[1].frames {
		if f.Kind == Signature && recs[1].oks[i] {
			t.Error("signature detected 15 dB under a data frame")
		}
	}
}

func TestSignatureSurvivesModerateData(t *testing.T) {
	// Signature only 5 dB under a data frame: within the correlator margin.
	rss := uniformRSS(3, -60)
	rss[0][1] = -65 // signature source
	rss[2][1] = -60 // data interferer
	k, m, recs := newTestMedium(t, rss)
	k.At(0, func() {
		m.Transmit(0, &Frame{Kind: Signature, Dst: Broadcast, Duration: SignatureDuration,
			Payload: &SignaturePayload{Sigs: []int{1}}})
		m.Transmit(2, &Frame{Kind: Data, Dst: 1, Bytes: 512, Rate: Rate12})
	})
	k.Run()
	found := false
	for i, f := range recs[1].frames {
		if f.Kind == Signature {
			found = true
			if !recs[1].oks[i] {
				t.Error("signature lost at -5 dB SINR, inside correlator margin")
			}
		}
	}
	if !found {
		t.Fatal("signature frame not delivered")
	}
}

func TestFrameKindString(t *testing.T) {
	for k, want := range map[FrameKind]string{
		Data: "DATA", Ack: "ACK", Poll: "POLL", Report: "REPORT",
		Signature: "SIG", FakeHeader: "FAKE", FrameKind(99): "FrameKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestDefaultDetectorShape(t *testing.T) {
	for n := 0; n <= 4; n++ {
		if p := DefaultDetector(n); p < 0.99 {
			t.Errorf("DefaultDetector(%d) = %v, want ~1 (paper Fig 9)", n, p)
		}
	}
	prev := 1.0
	for n := 4; n <= 10; n++ {
		p := DefaultDetector(n)
		if p > prev {
			t.Errorf("detection curve not monotone at %d", n)
		}
		prev = p
	}
	if DefaultDetector(7) >= DefaultDetector(4) {
		t.Error("7 combined should detect worse than 4")
	}
}

func BenchmarkMediumBroadcastChurn(b *testing.B) {
	k := sim.New(1)
	m := NewMedium(k, uniformRSS(40, -70), DefaultConfig())
	for i := 0; i < 40; i++ {
		m.Register(NodeID(i), &recorder{}, AllKinds)
	}
	b.ResetTimer()
	n := 0
	var send func()
	send = func() {
		m.Transmit(NodeID(n%40), &Frame{Kind: Data, Dst: Broadcast, Bytes: 512, Rate: Rate12})
		n++
		if n < b.N {
			k.After(400*sim.Microsecond, send)
		}
	}
	k.At(0, send)
	k.Run()
}

// TestHotStructsHoldNoPointers pins the property the arena and the kernel's
// heap entries exist for: sifting heap entries and writing receptions store
// no pointer, so they cost no GC write barrier and the GC never scans them.
// mac.Packet is held to the same rule, so a full MAC queue's ring is never
// scanned either.
func TestHotStructsHoldNoPointers(t *testing.T) {
	for _, v := range []any{reception{}, liveRx{}, outcome{}, sigRec{}, mac.Packet{}} {
		if path := pointerPath(reflect.TypeOf(v)); path != "" {
			t.Errorf("%T holds a pointer at %s", v, path)
		}
	}
}

// pointerPath returns the path to the first pointer-holding component of
// t, or "" when t holds none.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	case reflect.Array:
		return pointerPath(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return " (" + t.Kind().String() + ")"
	}
}
