package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestModulateCyclicPrefix: the first CPLen samples of a modulated symbol
// must equal its last CPLen samples (the defining CP property), for any
// subchannel and value.
func TestModulateCyclicPrefix(t *testing.T) {
	l := DefaultLayout()
	f := func(sub uint8, value uint8) bool {
		s := int(sub) % l.NumSubchannels()
		v := int(value) % (1 << l.PerSub)
		sym := Modulate(l, s, v)
		if len(sym) != l.SymbolSamples() {
			return false
		}
		for i := 0; i < l.CPLen; i++ {
			if cmplx.Abs(sym[i]-sym[l.N+i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestModulateEnergy: symbol energy scales with the number of set bits
// (Parseval through the IFFT).
func TestModulateEnergy(t *testing.T) {
	l := DefaultLayout()
	energy := func(v int) float64 {
		sym := Modulate(l, 0, v)
		var e float64
		for _, s := range sym[l.CPLen:] { // body only
			e += real(s)*real(s) + imag(s)*imag(s)
		}
		return e
	}
	e0 := energy(0)
	e1 := energy(0b100000)
	e6 := energy(0b111111)
	if e0 > 1e-15 {
		t.Errorf("zero value radiates energy %g", e0)
	}
	if math.Abs(e6/e1-6) > 1e-9 {
		t.Errorf("6-bit energy %.3f not 6x the 1-bit energy %.3f", e6, e1)
	}
}

// TestPollLinearity: decoding is per-subchannel — adding a third client on a
// distant subchannel must not change the first two's values.
func TestPollLinearity(t *testing.T) {
	l := DefaultLayout()
	rng := rand.New(rand.NewSource(6))
	base := []Client{{Subchannel: 0}, {Subchannel: 5, CFOHz: 300}}
	vals := []int{13, 42}
	r1 := NewPoller(l).Poll(base, vals, 0, rng)
	r2 := NewPoller(l).Poll(append(base[:2:2], Client{Subchannel: 15}), append(vals[:2:2], 7), 0, rng)
	if r1.Values[0] != r2.Values[0] || r1.Values[1] != r2.Values[1] {
		t.Errorf("distant subchannel changed decodes: %v vs %v", r1.Values, r2.Values[:2])
	}
}
