package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Client models one polled station's channel toward the AP.
type Client struct {
	// Subchannel assigned at association.
	Subchannel int
	// GainDB is the received signal strength relative to a reference client
	// (the Fig 5/6 experiments sweep the difference between clients).
	GainDB float64
	// CFOHz is the residual carrier-frequency offset after the client tuned
	// to the poll packet's preamble. Residual offsets of a few kHz are what
	// break subcarrier orthogonality and motivate the guard subcarriers.
	CFOHz float64
	// DelaySamples is the client's turnaround propagation delay; it must be
	// smaller than the CP for the common FFT window to work (paper Fig 4).
	DelaySamples int
}

// Poller simulates ROP rounds for one layout with all scratch state — the
// FFT plan, modulation buffers, the receive window and the result slices —
// allocated once at construction. Poll reuses the scratch, so a round
// allocates nothing in steady state; the slices inside the returned
// PollResult alias that scratch and are valid only until the next Poll call.
// A Poller is not safe for concurrent use (the shared Plan underneath is).
type Poller struct {
	l        Layout
	plan     *Plan
	freq     []complex128 // modulation frequency-domain scratch (N)
	sym      []complex128 // one client's time-domain symbol (CP + N)
	rx       []complex128 // superimposed receive buffer (CP + N)
	window   []complex128 // common FFT window (N)
	spectrum []float64
	values   []int
	ok       []bool
}

// NewPoller builds a poller for the layout, sharing the cached FFT plan for
// l.N with every other user of that size.
func NewPoller(l Layout) *Poller {
	return &Poller{
		l:        l,
		plan:     PlanFor(l.N),
		freq:     make([]complex128, l.N),
		sym:      make([]complex128, l.SymbolSamples()),
		rx:       make([]complex128, l.SymbolSamples()),
		window:   make([]complex128, l.N),
		spectrum: make([]float64, l.N),
		values:   make([]int, 0, l.NumSubchannels()),
		ok:       make([]bool, 0, l.NumSubchannels()),
	}
}

// modulate builds one client's time-domain symbol (CP + body) into p.sym,
// carrying the 2ASK-encoded value: bit b of value drives subcarrier b of the
// subchannel at amplitude 1 (bit set) or 0. 2ASK is used because a single
// symbol gives no phase reference (paper §3.1).
func (p *Poller) modulate(sub, value int) {
	freq := p.freq
	for i := range freq {
		freq[i] = 0
	}
	start, mirror := p.l.subchannelStart(sub)
	for b := 0; b < p.l.PerSub; b++ {
		if value&(1<<uint(p.l.PerSub-1-b)) != 0 {
			freq[p.l.bin(start, mirror, b)] = 1
		}
	}
	p.plan.Inverse(freq)
	// The IFFT/FFT round trip through our normalisation restores active
	// subcarriers at unit amplitude; no extra scaling needed.
	copy(p.sym, freq[p.l.N-p.l.CPLen:])
	copy(p.sym[p.l.CPLen:], freq)
}

// Modulate builds one client's time-domain symbol (CP + body) as a fresh
// slice. Convenience wrapper over Poller.modulate for callers outside the
// per-round hot path.
func Modulate(l Layout, sub int, value int) []complex128 {
	p := NewPoller(l)
	p.modulate(sub, value)
	out := make([]complex128, l.SymbolSamples())
	copy(out, p.sym)
	return out
}

// applyChannel applies gain, CFO rotation and delay, adding the result into
// rx (which must be at least SymbolSamples long).
func applyChannel(l Layout, rx, sym []complex128, c Client, rng *rand.Rand) {
	gain := math.Pow(10, c.GainDB/20)
	// A random initial carrier phase: the AP has no phase reference.
	phase := 2 * math.Pi * rng.Float64()
	for n, s := range sym {
		at := n + c.DelaySamples
		if at >= len(rx) {
			break
		}
		rot := cmplx.Exp(complex(0, phase+2*math.Pi*c.CFOHz*float64(n)/SampleRate))
		rx[at] += complex(gain, 0) * s * rot
	}
}

// PollResult is the outcome of one ROP round at the AP.
type PollResult struct {
	// Values holds the decoded queue value per polled client.
	Values []int
	// OK flags whether each client's value matches what it sent.
	OK []bool
	// Spectrum is |Y_k| per FFT bin after the receiver FFT, the quantity
	// paper Fig 5 plots.
	Spectrum []float64
}

// Poll simulates one polling round: every client transmits its value
// simultaneously on its subchannel; the AP takes the FFT window after the CP
// and decodes each subchannel against that client's expected amplitude.
// noiseStd is per-sample complex-noise standard deviation (unit-amplitude
// reference client). The result's slices alias the poller's scratch and are
// overwritten by the next Poll call.
func (p *Poller) Poll(clients []Client, values []int, noiseStd float64, rng *rand.Rand) PollResult {
	if len(clients) != len(values) {
		panic("ofdm: clients/values length mismatch")
	}
	l := p.l
	rx := p.rx
	for i := range rx {
		rx[i] = 0
	}
	for i, c := range clients {
		if c.DelaySamples >= l.CPLen {
			panic("ofdm: client delay exceeds the cyclic prefix")
		}
		p.modulate(c.Subchannel, l.EncodeQueue(values[i]))
		applyChannel(l, rx, p.sym, c, rng)
	}
	for n := range rx {
		rx[n] += complex(rng.NormFloat64()*noiseStd/math.Sqrt2, rng.NormFloat64()*noiseStd/math.Sqrt2)
	}

	// Common FFT window: skip the CP.
	copy(p.window, rx[l.CPLen:])
	p.plan.Forward(p.window)

	spectrum := p.spectrum
	for k, v := range p.window {
		spectrum[k] = cmplx.Abs(v)
	}

	vals, oks := p.values[:0], p.ok[:0]
	for i, c := range clients {
		got := demod(l, spectrum, c)
		vals = append(vals, got)
		oks = append(oks, got == l.EncodeQueue(values[i]))
	}
	p.values, p.ok = vals, oks
	return PollResult{Values: vals, OK: oks, Spectrum: spectrum}
}

// demod slices one client's subchannel out of the amplitude spectrum: a bit
// is 1 when the subcarrier amplitude exceeds half the client's expected
// amplitude (the AP calibrates per-client amplitude from association-time
// exchanges).
func demod(l Layout, spectrum []float64, c Client) int {
	ref := math.Pow(10, c.GainDB/20)
	start, mirror := l.subchannelStart(c.Subchannel)
	v := 0
	for b := 0; b < l.PerSub; b++ {
		if spectrum[l.bin(start, mirror, b)] > ref/2 {
			v |= 1 << uint(l.PerSub-1-b)
		}
	}
	return v
}

// DefaultCFOMaxHz is the residual carrier-frequency offset after clients tune
// to the poll preamble (~0.2 ppm at 2.4 GHz). With this residual, three guard
// subcarriers tolerate the 38 dB RSS difference of paper §3.1; the Fig 5(b)
// no-guard corruption demonstration uses a poorly-tuned 1.5 kHz client.
const DefaultCFOMaxHz = 550

// DecodeRatio measures the fraction of trials in which a weak client's value
// survives a strong neighbour on the adjacent subchannel — the paper Fig 6
// experiment. rssDiffDB is the strong client's advantage; guard is swept via
// the layout. cfoMaxHz bounds the per-client random residual CFO.
func DecodeRatio(l Layout, rssDiffDB, cfoMaxHz, noiseStd float64, trials int, rng *rand.Rand) float64 {
	p := NewPoller(l)
	clients := make([]Client, 2)
	values := make([]int, 2)
	ok := 0
	for t := 0; t < trials; t++ {
		// Draw order (strong CFO, weak CFO, weak value) is part of the
		// deterministic-results contract; keep it when refactoring.
		clients[0] = Client{Subchannel: 0, GainDB: rssDiffDB, CFOHz: (2*rng.Float64() - 1) * cfoMaxHz} // strong
		clients[1] = Client{Subchannel: 1, GainDB: 0, CFOHz: (2*rng.Float64() - 1) * cfoMaxHz}         // weak (measured)
		// The weak client reports a random queue size: zero bits adjacent to
		// the strong subchannel are the vulnerable ones (leakage flips them
		// to ones).
		values[0] = 1<<l.PerSub - 1
		values[1] = rng.Intn(1 << l.PerSub)
		res := p.Poll(clients, values, noiseStd, rng)
		if res.OK[1] {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}

// SNRFloor measures single-client decode reliability against wideband SNR
// (dB): the §3.1 experiment showing one control symbol decodes down to about
// the 4 dB minimum WiFi itself needs. Wideband SNR is per-sample signal power
// over per-sample noise power — the quantity a receiver reports — so the FFT
// concentrates the subchannel's energy into 6 of 256 bins while noise spreads
// over all of them (the ~16 dB processing margin that makes a single control
// symbol as robust as the lowest WiFi rate).
func SNRFloor(l Layout, snrDB float64, trials int, rng *rand.Rand) float64 {
	// Per-sample power of a full-amplitude report symbol, measured.
	ref := Modulate(l, 0, 1<<l.PerSub-1)
	var p float64
	for _, s := range ref {
		p += real(s)*real(s) + imag(s)*imag(s)
	}
	p /= float64(len(ref))
	noiseStd := math.Sqrt(p / math.Pow(10, snrDB/10))
	poller := NewPoller(l)
	clients := make([]Client, 1)
	values := make([]int, 1)
	ok := 0
	for t := 0; t < trials; t++ {
		clients[0] = Client{Subchannel: rng.Intn(l.NumSubchannels())}
		values[0] = rng.Intn(1 << l.PerSub)
		res := poller.Poll(clients, values, noiseStd, rng)
		if res.OK[0] {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}
