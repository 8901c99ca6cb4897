package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// FFT computes the in-place radix-2 FFT via the shared cached plan for
// len(x). The length must be a power of two.
func FFT(x []complex128) { PlanFor(len(x)).Forward(x) }

// IFFT computes the in-place inverse FFT with 1/N normalisation via the
// shared cached plan for len(x).
func IFFT(x []complex128) { PlanFor(len(x)).Inverse(x) }

// ReferenceFFT is the pre-plan naive transform (per-stage trig, incremental
// twiddle recurrence), retained for golden cross-checks and before/after
// benchmarks against the planned path.
func ReferenceFFT(x []complex128) { referenceTransform(x, false) }

// ReferenceIFFT is the pre-plan inverse transform with its separate 1/N
// division pass.
func ReferenceIFFT(x []complex128) {
	referenceTransform(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func referenceTransform(x []complex128, inverse bool) {
	n := len(x)
	if n&(n-1) != 0 || n == 0 {
		panic("ofdm: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := x[start+k]
				v := x[start+k+length/2] * w
				x[start+k] = u + v
				x[start+k+length/2] = u - v
				w *= wl
			}
		}
	}
}

// maxDiff returns the largest |a[i]-b[i]| and the largest |b[i]| for scaling
// the tolerance: absolute error in an n-point FFT grows with output
// magnitude, so the cross-check bounds relative error.
func maxDiff(a, b []complex128) (diff, scale float64) {
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > diff {
			diff = d
		}
		if m := cmplx.Abs(b[i]); m > scale {
			scale = m
		}
	}
	if scale == 0 {
		scale = 1
	}
	return diff, scale
}

// TestPlannedFFTMatchesReference golden-checks the planned transform against
// the retained naive implementation on random inputs for every power-of-two
// size 2..1024, both directions, to 1e-12 relative tolerance. The planned
// path uses table-exact twiddles while the reference accumulates them
// incrementally, so the comparison also bounds the reference's drift.
func TestPlannedFFTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 2; n <= 1024; n <<= 1 {
		for trial := 0; trial < 5; trial++ {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			planned := append([]complex128(nil), x...)
			reference := append([]complex128(nil), x...)

			FFT(planned)
			ReferenceFFT(reference)
			if diff, scale := maxDiff(planned, reference); diff > 1e-12*scale {
				t.Fatalf("n=%d trial %d: forward diverges by %g (scale %g)", n, trial, diff, scale)
			}

			// Inverse on the forward output must also match the reference
			// and reconstruct the input.
			refInv := append([]complex128(nil), reference...)
			IFFT(planned)
			ReferenceIFFT(refInv)
			if diff, scale := maxDiff(planned, refInv); diff > 1e-12*scale {
				t.Fatalf("n=%d trial %d: inverse diverges by %g (scale %g)", n, trial, diff, scale)
			}
			if diff, scale := maxDiff(planned, x); diff > 1e-12*scale {
				t.Fatalf("n=%d trial %d: round trip error %g (scale %g)", n, trial, diff, scale)
			}
		}
	}
}

// TestPlanFusedScaling pins the satellite-3 contract directly: Inverse's 1/N
// normalisation (fused into the last butterfly stage) equals the reference's
// separate division pass, including for the degenerate 1-point transform.
func TestPlanFusedScaling(t *testing.T) {
	one := []complex128{complex(3, -4)}
	PlanFor(1).Inverse(one)
	if one[0] != complex(3, -4) {
		t.Fatalf("1-point inverse = %v, want identity", one[0])
	}
	x := make([]complex128, 8)
	for i := range x {
		x[i] = complex(float64(i), float64(-i))
	}
	ref := append([]complex128(nil), x...)
	IFFT(x)
	ReferenceIFFT(ref)
	if diff, scale := maxDiff(x, ref); diff > 1e-13*scale {
		t.Fatalf("fused scaling diverges from division pass by %g", diff)
	}
}

// TestPlanConcurrentReuse is the satellite-2 race regression: one shared Plan
// executed from many goroutines at once (each on its own buffer) must be
// race-free — run under -race via the Makefile's race-hot target — and every
// goroutine must get bit-identical output.
func TestPlanConcurrentReuse(t *testing.T) {
	const n = 256
	p := PlanFor(n)
	input := make([]complex128, n)
	rng := rand.New(rand.NewSource(7))
	for i := range input {
		input[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := append([]complex128(nil), input...)
	p.Forward(want)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]complex128, n)
			for iter := 0; iter < 200; iter++ {
				copy(buf, input)
				p.Forward(buf)
				for i := range buf {
					if buf[i] != want[i] {
						errs <- "concurrent Forward output diverged"
						return
					}
				}
				// PlanFor from racing goroutines must keep returning the
				// same cached plan.
				if PlanFor(n) != p {
					errs <- "PlanFor returned a different plan"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestFFTZeroAllocs pins the hot-path contract: once the plan is cached,
// FFT/IFFT through the package wrappers allocate nothing.
func TestFFTZeroAllocs(t *testing.T) {
	x := make([]complex128, 256)
	x[1] = 1
	PlanFor(256) // warm the cache
	if got := testing.AllocsPerRun(100, func() {
		FFT(x)
		IFFT(x)
	}); got != 0 {
		t.Fatalf("FFT+IFFT allocate %v/op, want 0", got)
	}
}

// TestPollerZeroAllocs checks the full ROP round: with a constructed Poller
// the per-round path (modulate, channel, FFT, demod) allocates nothing in
// steady state.
func TestPollerZeroAllocs(t *testing.T) {
	l := DefaultLayout()
	p := NewPoller(l)
	rng := rand.New(rand.NewSource(3))
	clients := []Client{{Subchannel: 0, GainDB: 3}, {Subchannel: 5}}
	values := []int{17, 42}
	p.Poll(clients, values, 0.05, rng) // warm result-slice capacity
	if got := testing.AllocsPerRun(50, func() {
		p.Poll(clients, values, 0.05, rng)
	}); got != 0 {
		t.Fatalf("Poller.Poll allocates %v/op in steady state, want 0", got)
	}
}

// TestPlanBadLengths mirrors the wrapper panics for the plan constructor.
func TestPlanBadLengths(t *testing.T) {
	for _, n := range []int{-1, 0, 3, 12, 100} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d) did not panic", n)
				}
			}()
			NewPlan(n)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Forward with mismatched length did not panic")
			}
		}()
		PlanFor(8).Forward(make([]complex128, 16))
	}()
}

func BenchmarkFFT256Reference(b *testing.B) {
	x := make([]complex128, 256)
	x[1] = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceFFT(x)
	}
}
