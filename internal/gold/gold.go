// Package gold implements Gold code generation and chip-level signature
// detection, the physical mechanism behind DOMINO's relative-scheduling
// triggers (paper §3.2): each node owns one code from a Gold set; triggers
// are sums of up to four codes; receivers run correlators for their own code
// and detect it even under interference thanks to the set's bounded
// cross-correlation.
//
// Codes are built the classical way (Gold 1967): an m-sequence from a
// primitive polynomial, its decimation by q (a preferred pair), and the XOR
// of the first with every cyclic shift of the second — 2^m + 1 sequences of
// length 2^m − 1 whose periodic cross-correlations take only the three values
// {−1, −t(m), t(m)−2}.
package gold

import (
	"fmt"
	"math"
	"math/rand"
)

// primitiveTaps lists one primitive polynomial per supported degree, as tap
// positions of a Fibonacci LFSR (x^m + x^t1 + ... + 1).
var primitiveTaps = map[int][]int{
	5:  {5, 2},
	6:  {6, 1},
	7:  {7, 3},
	9:  {9, 4},
	10: {10, 3},
	11: {11, 2},
}

// Set is a family of Gold codes of one length.
type Set struct {
	m     int
	n     int // code length 2^m − 1
	t     int // three-valued correlation bound t(m)
	codes [][]int8
	// fchips mirrors codes as float64, precomputed so the correlator and
	// AddShifted hot loops multiply directly instead of converting each
	// int8 chip on every visit (the conversion dominated Metric's inner
	// loop before this cache existed).
	fchips [][]float64
}

// NewSet builds the Gold set of degree m (length 2^m − 1, 2^m + 1 codes).
// Degrees divisible by 4 have no preferred pairs (no Gold codes exist);
// supported degrees are 5, 6, 7, 9, 10 and 11. DOMINO uses m=7: 129 codes of
// 127 chips, 6.35 µs at 20 Mcps.
func NewSet(m int) (*Set, error) {
	taps, ok := primitiveTaps[m]
	if !ok {
		if m%4 == 0 {
			return nil, fmt.Errorf("gold: no preferred pairs exist for degree %d (m ≡ 0 mod 4)", m)
		}
		return nil, fmt.Errorf("gold: unsupported degree %d", m)
	}
	n := 1<<m - 1
	a := mSequence(m, taps)
	// Decimation by q produces the preferred companion: q = 3 for odd m,
	// q = 5 for m ≡ 2 (mod 4).
	q := 3
	if m%2 == 0 {
		q = 5
	}
	b := decimate(a, q)

	t := threeValueBound(m)
	s := &Set{m: m, n: n, t: t}
	s.codes = append(s.codes, toChips(a), toChips(b))
	for shift := 0; shift < n; shift++ {
		x := make([]uint8, n)
		for i := range x {
			x[i] = a[i] ^ b[(i+shift)%n]
		}
		s.codes = append(s.codes, toChips(x))
	}
	s.fchips = make([][]float64, len(s.codes))
	for i, code := range s.codes {
		f := make([]float64, n)
		for k, c := range code {
			f[k] = float64(c)
		}
		s.fchips[i] = f
	}
	return s, nil
}

// threeValueBound returns t(m) = 2^⌊(m+2)/2⌋ + 1, the magnitude bound of
// Gold-set cross-correlations.
func threeValueBound(m int) int {
	if m%2 == 1 {
		return 1<<((m+1)/2) + 1
	}
	return 1<<((m+2)/2) + 1
}

// mSequence runs the recurrence of the primitive polynomial
// x^m + x^t1 + ... + 1 (taps = [m, t1, ...]) from the all-ones state for one
// full period: s[i+m] = s[i] ⊕ s[i+t1] ⊕ ....
func mSequence(m int, taps []int) []uint8 {
	n := 1<<m - 1
	state := make([]uint8, m) // state[i] = s[t+i]
	for i := range state {
		state[i] = 1
	}
	out := make([]uint8, n)
	for i := 0; i < n; i++ {
		out[i] = state[0]
		fb := state[0] // the +1 term
		for _, t := range taps {
			if t != m {
				fb ^= state[t]
			}
		}
		copy(state, state[1:])
		state[m-1] = fb
	}
	return out
}

// decimate samples every q-th bit of a periodic sequence.
func decimate(a []uint8, q int) []uint8 {
	n := len(a)
	out := make([]uint8, n)
	for i := range out {
		out[i] = a[(q*i)%n]
	}
	return out
}

// toChips maps bits {0,1} to BPSK chips {+1,−1}.
func toChips(bits []uint8) []int8 {
	out := make([]int8, len(bits))
	for i, b := range bits {
		if b == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Len returns the chip length of the set's codes.
func (s *Set) Len() int { return s.n }

// Count returns the number of codes in the set (2^m + 1). The paper reserves
// two for the START and ROP signatures, leaving 127 node signatures at m=7.
func (s *Set) Count() int { return len(s.codes) }

// Bound returns t(m), the guaranteed cross-correlation magnitude bound.
func (s *Set) Bound() int { return s.t }

// Code returns the i-th code's chips. The returned slice is shared; callers
// must not modify it.
func (s *Set) Code(i int) []int8 { return s.codes[i] }

// CrossCorr computes the periodic correlation of codes i and j at the given
// cyclic shift of j.
func (s *Set) CrossCorr(i, j, shift int) int {
	a, b := s.codes[i], s.codes[j]
	sum := 0
	for k := 0; k < s.n; k++ {
		sum += int(a[k]) * int(b[(k+shift)%s.n])
	}
	return sum
}

// Combine sums the chip streams of the given codes into one baseband signal,
// as a trigger transmitter does when notifying several next transmitters at
// once (paper §3.2: "AP1 sends the sum of AP2 and AP3's signatures").
func (s *Set) Combine(idx ...int) []float64 {
	out := make([]float64, s.n)
	s.AddShifted(out, 1, 0, idx...)
	return out
}

// AddShifted adds the given codes, cyclically shifted and scaled, into rx —
// one asynchronous transmitter's contribution to the received baseband. rx
// must be at most one code period long (every caller uses exactly Len()).
func (s *Set) AddShifted(rx []float64, amp float64, shift int, idx ...int) {
	for _, i := range idx {
		code := s.fchips[i]
		// rx[k] += amp*code[(k+shift) mod n], with the wrap hoisted out of
		// the loop: chips [shift:n) land in rx[:n-shift), chips [:shift)
		// in rx[n-shift:).
		split := s.n - shift
		if split > len(rx) {
			split = len(rx)
		}
		head, tail := rx[:split], rx[split:]
		shifted := code[shift:]
		for k := range head {
			head[k] += amp * shifted[k]
		}
		for k := range tail {
			tail[k] += amp * code[k]
		}
	}
}

// Correlator detects whether a target code is present in a received baseband
// signal: it normalises the zero-shift correlation by the code energy and
// compares against Threshold (a fraction of the full autocorrelation peak).
type Correlator struct {
	Set *Set
	// Threshold is the detection level as a fraction of the autocorrelation
	// peak; 0.5 balances misses against false positives and keeps the false
	// positive rate below 1% (paper Fig 9).
	Threshold float64
}

// NewCorrelator returns a correlator with the default 0.5 threshold.
func NewCorrelator(s *Set) *Correlator { return &Correlator{Set: s, Threshold: 0.5} }

// Metric returns |corr(rx, code)| / n: 1.0 for a clean unit-amplitude
// occurrence of the code, ~t(m)/n for an absent one.
func (c *Correlator) Metric(rx []float64, code int) float64 {
	chips := c.Set.fchips[code]
	var sum float64
	for k, v := range rx {
		sum += v * chips[k]
	}
	return math.Abs(sum) / float64(c.Set.n)
}

// Detect reports whether the code is judged present in rx. It must stay a
// one-liner: Metric's inlined body (cost 51) plus any extra call pushes this
// function past the compiler's inlining budget (80), and losing inlinability
// costs the Monte-Carlo trial loops a full call frame per judgement (~50%
// on the correlator micro-benchmark).
func (c *Correlator) Detect(rx []float64, code int) bool {
	return c.Metric(rx, code) >= c.Threshold
}

// AddAWGN adds white Gaussian noise of the given standard deviation per chip.
func AddAWGN(rx []float64, std float64, rng *rand.Rand) {
	for i := range rx {
		rx[i] += rng.NormFloat64() * std
	}
}

// NoiseStdForSNR returns the per-chip noise standard deviation such that a
// unit-amplitude BPSK signal has the given chip SNR in dB.
func NoiseStdForSNR(snrDB float64) float64 {
	return math.Pow(10, -snrDB/20)
}
