package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTKnownValues(t *testing.T) {
	// Impulse -> flat spectrum.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v", k, v)
		}
	}
	// Single complex tone at bin 3.
	n := 16
	y := make([]complex128, n)
	for i := range y {
		ang := 2 * math.Pi * 3 * float64(i) / float64(n)
		y[i] = cmplx.Exp(complex(0, ang))
	}
	FFT(y)
	for k, v := range y {
		want := 0.0
		if k == 3 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("tone FFT bin %d = %v", k, v)
		}
	}
}

func TestFFTRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 256
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	FFT(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-6*timeE {
		t.Fatalf("Parseval: time %v vs freq/N %v", timeE, freqE/float64(n))
	}
}

func TestFFTBadLengthPanics(t *testing.T) {
	for _, n := range []int{0, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT of length %d did not panic", n)
				}
			}()
			FFT(make([]complex128, n))
		}()
	}
}

func TestDefaultLayoutMatchesTable1(t *testing.T) {
	l := DefaultLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.N != 256 {
		t.Errorf("N = %d", l.N)
	}
	if l.NumSubchannels() != 24 {
		t.Errorf("subchannels = %d, want 24", l.NumSubchannels())
	}
	if l.PerSub != 6 || l.Guard != 3 {
		t.Errorf("per-sub/guard = %d/%d", l.PerSub, l.Guard)
	}
	if got := l.SymbolDurationUs(); math.Abs(got-16) > 1e-9 {
		t.Errorf("symbol duration = %v µs, want 16", got)
	}
	if got := float64(l.CPLen) / SampleRate * 1e6; math.Abs(got-3.2) > 1e-9 {
		t.Errorf("CP duration = %v µs, want 3.2", got)
	}
}

func TestLayoutAllocation(t *testing.T) {
	l := DefaultLayout()
	used := map[int]int{}
	for s := 0; s < l.NumSubchannels(); s++ {
		idx := l.SubcarrierIndices(s)
		if len(idx) != 6 {
			t.Fatalf("subchannel %d has %d subcarriers", s, len(idx))
		}
		for _, bin := range idx {
			if bin <= 0 || bin >= l.N {
				t.Fatalf("subchannel %d uses invalid bin %d", s, bin)
			}
			if bin == l.N/2 {
				t.Fatalf("subchannel %d uses the Nyquist bin", s)
			}
			used[bin]++
		}
	}
	// DC never used; no bin shared.
	if used[0] != 0 {
		t.Error("DC bin allocated")
	}
	for bin, n := range used {
		if n > 1 {
			t.Errorf("bin %d allocated %d times", bin, n)
		}
	}
	if len(used) != 144 {
		t.Errorf("%d data subcarriers, want 144", len(used))
	}
	// Guard accounting: 256 = 144 data + 72 inter-subchannel guards + 39
	// edge guards + 1 DC (paper §3.1).
	if free := l.N - len(used) - 1; free != 72+39 {
		t.Errorf("non-data, non-DC bins = %d, want 111", free)
	}
	// Adjacent subchannels on one side are separated by exactly Guard bins.
	a := l.SubcarrierIndices(0)
	b := l.SubcarrierIndices(1)
	if b[0]-a[len(a)-1]-1 != l.Guard {
		t.Errorf("gap between subchannels = %d, want %d", b[0]-a[len(a)-1]-1, l.Guard)
	}
	// Out-of-range panics.
	defer func() {
		if recover() == nil {
			t.Error("subchannel 24 did not panic")
		}
	}()
	l.SubcarrierIndices(24)
}

func TestEncodeQueue(t *testing.T) {
	l := DefaultLayout()
	cases := map[int]int{-5: 0, 0: 0, 1: 1, 63: 63, 64: 63, 1000: 63}
	for in, want := range cases {
		if got := l.EncodeQueue(in); got != want {
			t.Errorf("EncodeQueue(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPollCleanAllSubchannels(t *testing.T) {
	// The headline ROP property: all 24 clients report in ONE symbol.
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(3))
	var clients []Client
	var values []int
	for s := 0; s < l.NumSubchannels(); s++ {
		clients = append(clients, Client{Subchannel: s})
		values = append(values, rng.Intn(64))
	}
	res := NewPoller(l).Poll(clients, values, 1e-3, rng)
	for i, ok := range res.OK {
		if !ok {
			t.Errorf("client %d: decoded %d, sent %d", i, res.Values[i], values[i])
		}
	}
}

func TestPollDelaysWithinCP(t *testing.T) {
	// Turnaround delays up to 2 µs (40 samples) must not hurt: the CP
	// absorbs them (paper Fig 4).
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(4))
	clients := []Client{
		{Subchannel: 0, DelaySamples: 0},
		{Subchannel: 1, DelaySamples: 40},
		{Subchannel: 2, DelaySamples: 63},
	}
	values := []int{0b101010, 0b111111, 0b000001}
	res := NewPoller(l).Poll(clients, values, 1e-3, rng)
	for i, ok := range res.OK {
		if !ok {
			t.Errorf("client %d with delay %d failed: got %d want %d",
				i, clients[i].DelaySamples, res.Values[i], values[i])
		}
	}
}

func TestPollDelayBeyondCPPanics(t *testing.T) {
	l := DefaultLayout()
	defer func() {
		if recover() == nil {
			t.Error("delay ≥ CP did not panic")
		}
	}()
	NewPoller(l).Poll([]Client{{Subchannel: 0, DelaySamples: 64}}, []int{1}, 0, rand.New(rand.NewSource(1)))
}

// TestFig5a: adjacent subchannels, similar RSS, no guard — both decode.
func TestFig5a(t *testing.T) {
	l := DefaultLayout()
	l.Guard = 0
	rng := rand.New(rand.NewSource(5))
	clients := []Client{
		{Subchannel: 0, CFOHz: 900},
		{Subchannel: 1, CFOHz: -700},
	}
	values := []int{0b111111, 0b011111} // the paper's bit patterns
	res := NewPoller(l).Poll(clients, values, 1e-3, rng)
	if !res.OK[0] || !res.OK[1] {
		t.Errorf("equal-RSS adjacent subchannels failed: %v %v (got %b, %b)",
			res.OK[0], res.OK[1], res.Values[0], res.Values[1])
	}
}

// TestFig5bc: with a 30 dB RSS difference and a poorly-tuned (1.2 kHz
// residual CFO) strong client, the weak client is corrupted without guards
// and survives with 3 guard subcarriers.
func TestFig5bc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	run := func(guard int) float64 {
		l := DefaultLayout()
		l.Guard = guard
		return DecodeRatio(l, 30, 1200, 1e-3, 200, rng)
	}
	noGuard := run(0)
	withGuard := run(3)
	if noGuard > 0.7 {
		t.Errorf("no-guard decode ratio at 30 dB = %.2f, want corrupted (Fig 5b)", noGuard)
	}
	if withGuard < 0.9 {
		t.Errorf("3-guard decode ratio at 30 dB = %.2f, want ≈1 (Fig 5c)", withGuard)
	}
}

// TestFig6Shape: the guard-subcarrier sweep at the well-tuned residual CFO.
// Three guards tolerate the 38 dB difference the trace statistics call for;
// tolerance grows with guards and collapses at larger differences.
func TestFig6Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ratio := func(guard int, diff float64) float64 {
		l := DefaultLayout()
		l.Guard = guard
		return DecodeRatio(l, diff, DefaultCFOMaxHz, 1e-3, 150, rng)
	}
	if r := ratio(3, 38); r < 0.9 {
		t.Errorf("3 guards at 38 dB: ratio %.2f, want ≥0.9 (paper §3.1)", r)
	}
	if r := ratio(3, 46); r > 0.7 {
		t.Errorf("3 guards at 46 dB: ratio %.2f, should degrade", r)
	}
	if r0, r3 := ratio(0, 38), ratio(3, 38); r0 > r3-0.2 {
		t.Errorf("guards don't help at 38 dB: g0=%.2f g3=%.2f", r0, r3)
	}
	// Monotone in guards at a fixed 36 dB difference.
	prev := -1.0
	for g := 0; g <= 4; g++ {
		r := ratio(g, 36)
		if r < prev-0.12 { // allow Monte-Carlo wiggle
			t.Errorf("ratio not increasing with guards: g=%d r=%.2f prev=%.2f", g, r, prev)
		}
		prev = r
	}
	// Monotone (decreasing) in RSS difference for g=3.
	prevR := 2.0
	for _, d := range []float64{20, 30, 38, 44, 50} {
		r := ratio(3, d)
		if r > prevR+0.12 {
			t.Errorf("ratio not decreasing with RSS diff: d=%v r=%.2f prev=%.2f", d, r, prevR)
		}
		prevR = r
	}
}

// TestSNRFloor: the single-symbol report decodes reliably down to about the
// 4 dB SNR at which WiFi's lowest rate works (paper §3.1).
func TestSNRFloor(t *testing.T) {
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(8))
	if r := SNRFloor(l, 4, 150, rng); r < 0.95 {
		t.Errorf("decode ratio at 4 dB = %.2f, want ≥0.95", r)
	}
	if r := SNRFloor(l, 10, 100, rng); r < 0.99 {
		t.Errorf("decode ratio at 10 dB = %.2f", r)
	}
	if r := SNRFloor(l, -16, 150, rng); r > 0.7 {
		t.Errorf("decode ratio at -16 dB = %.2f, should fail", r)
	}
}

func TestSpectrumShape(t *testing.T) {
	// The spectrum output feeds the Fig 5 plots: active bins carry ≈ the
	// client amplitude, guard bins well below it.
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(9))
	res := NewPoller(l).Poll([]Client{{Subchannel: 3}}, []int{0b111111}, 1e-4, rng)
	idx := l.SubcarrierIndices(3)
	for _, bin := range idx {
		if res.Spectrum[bin] < 0.9 {
			t.Errorf("active bin %d amplitude %.3f", bin, res.Spectrum[bin])
		}
	}
	guardBin := idx[len(idx)-1] + 2
	if res.Spectrum[guardBin] > 0.1 {
		t.Errorf("guard bin %d amplitude %.3f", guardBin, res.Spectrum[guardBin])
	}
}

func TestPollMismatchedArgsPanics(t *testing.T) {
	l := DefaultLayout()
	defer func() {
		if recover() == nil {
			t.Error("mismatched clients/values did not panic")
		}
	}()
	NewPoller(l).Poll([]Client{{Subchannel: 0}}, []int{1, 2}, 0, rand.New(rand.NewSource(1)))
}

func BenchmarkFFT256(b *testing.B) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkPollRound(b *testing.B) {
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(1))
	var clients []Client
	var values []int
	for s := 0; s < 24; s++ {
		clients = append(clients, Client{Subchannel: s, CFOHz: 500})
		values = append(values, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPoller(l).Poll(clients, values, 1e-3, rng)
	}
}
