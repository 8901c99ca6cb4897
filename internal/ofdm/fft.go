// Package ofdm implements the Rapid OFDM Polling PHY (paper §3.1): the
// 256-subcarrier control symbol of Table 1, 2ASK modulation of client queue
// sizes onto per-client subchannels, and a sample-level channel model
// (per-client gain, residual carrier-frequency offset, propagation delay
// within the cyclic prefix, AWGN) from which the inter-subchannel
// interference of Figs 5 and 6 emerges naturally.
package ofdm

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Plan holds the precomputed state for radix-2 FFTs of one size: the
// bit-reversal permutation and the twiddle-factor tables for both transform
// directions. Building a plan costs two trig calls per table entry; executing
// one costs none and allocates nothing. Plans are immutable after NewPlan
// returns, so a single plan may be shared freely across goroutines.
type Plan struct {
	n     int
	rev   []int32      // bit-reversal permutation; rev[i] < i entries are swap targets
	tw    []complex128 // tw[k] = exp(-2πik/n), k in [0, n/2): forward twiddles
	twInv []complex128 // conjugate table for the inverse transform
}

// NewPlan builds an FFT plan for length n, which must be a power of two.
// Most callers want PlanFor, which caches one plan per size.
func NewPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic("ofdm: FFT length must be a power of two")
	}
	p := &Plan{n: n}
	shift := uint(bits.TrailingZeros(uint(n)))
	p.rev = make([]int32, n)
	for i := 1; i < n; i++ {
		p.rev[i] = p.rev[i>>1]>>1 | int32(i&1)<<(shift-1)
	}
	half := n / 2
	p.tw = make([]complex128, half)
	p.twInv = make([]complex128, half)
	for k := 0; k < half; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, s)
		p.twInv[k] = complex(c, -s)
	}
	return p
}

// planCache holds one shared plan per power-of-two size, indexed by log2(n).
// A fixed array of atomic pointers instead of a sync.Map: lookups never box
// the key, so PlanFor stays allocation-free on the per-symbol hot path.
const maxCachedPlanBits = 24

var planCache [maxCachedPlanBits + 1]atomic.Pointer[Plan]

// PlanFor returns the shared plan for length n (a power of two), building and
// caching it on first use. Safe for concurrent use: plans are immutable and
// the cache is lock-free. Steady state performs no allocation.
func PlanFor(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic("ofdm: FFT length must be a power of two")
	}
	b := bits.TrailingZeros(uint(n))
	if b > maxCachedPlanBits {
		return NewPlan(n)
	}
	if p := planCache[b].Load(); p != nil {
		return p
	}
	planCache[b].CompareAndSwap(nil, NewPlan(n))
	return planCache[b].Load()
}

// Forward computes the in-place FFT of x, whose length must equal the plan's
// size. Allocation-free.
func (p *Plan) Forward(x []complex128) { p.transform(x, p.tw, 1) }

// Inverse computes the in-place inverse FFT of x with 1/N normalisation. The
// scaling is fused into the final butterfly stage as a real scalar multiply,
// so there is no separate normalisation pass over the output. Allocation-free.
func (p *Plan) Inverse(x []complex128) { p.transform(x, p.twInv, 1/float64(p.n)) }

// transform runs the radix-2 decimation-in-time butterflies using the given
// twiddle table. scale is applied inside the last stage (1 disables it).
func (p *Plan) transform(x []complex128, tw []complex128, scale float64) {
	n := p.n
	if len(x) != n {
		panic("ofdm: FFT input length does not match the plan")
	}
	for i, j := range p.rev {
		if int32(i) < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n == 1 {
		if scale != 1 {
			x[0] = complex(real(x[0])*scale, imag(x[0])*scale)
		}
		return
	}
	// All stages but the last: stage `length` uses every (n/length)-th table
	// entry, since exp(-2πik/length) = tw[k·n/length].
	for length := 2; length < n; length <<= 1 {
		half := length >> 1
		stride := n / length
		for start := 0; start < n; start += length {
			k := 0
			for i := start; i < start+half; i++ {
				u := x[i]
				v := x[i+half] * tw[k]
				k += stride
				x[i] = u + v
				x[i+half] = u - v
			}
		}
	}
	// Final stage (length == n, stride 1), with the inverse transform's 1/N
	// folded in as a real scalar multiply on both butterfly outputs.
	half := n >> 1
	if scale != 1 {
		for i := 0; i < half; i++ {
			u := x[i]
			v := x[i+half] * tw[i]
			a, b := u+v, u-v
			x[i] = complex(real(a)*scale, imag(a)*scale)
			x[i+half] = complex(real(b)*scale, imag(b)*scale)
		}
		return
	}
	for i := 0; i < half; i++ {
		u := x[i]
		v := x[i+half] * tw[i]
		x[i] = u + v
		x[i+half] = u - v
	}
}
