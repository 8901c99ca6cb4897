// Package parallel is the fan-out layer for the repository's
// embarrassingly-parallel workloads: Monte-Carlo repetitions, sweep grids
// and the chip-level detection trials. It provides a bounded worker pool
// with two properties the experiment drivers rely on:
//
//   - Deterministic seeding. Each task derives its own RNG seed from the
//     experiment's base seed and the task index (Seed = base + idx*stride,
//     the scheme exp.Fig14 has always used), so a task's randomness depends
//     only on its index, never on which worker runs it or in what order.
//
//   - Ordered collection. Map writes task i's result into slot i of a
//     pre-sized slice, and reductions (CDF sample appends, count sums) happen in
//     index order after the pool drains. Together with per-task seeding
//     this makes parallel output byte-identical to serial output at any
//     worker count — the contract the determinism regression tests assert.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values ≤ 0 mean "all cores"
// (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Seed derives the RNG seed for task idx from an experiment's base seed.
// The stride keeps neighbouring tasks' rand.NewSource streams apart (a
// LCG-adjacent seed produces a correlated first draw); 101 is the stride
// the Fig 14 driver has used since the seed commit, kept as the default.
func Seed(base int64, idx int, stride int64) int64 {
	return base + int64(idx)*stride
}

// DefaultStride is the per-task seed spacing used by the drivers.
const DefaultStride int64 = 101

// ForEach runs fn(i) for every i in [0, n) on up to `workers` goroutines
// (≤ 0 → all cores) and blocks until all complete. Tasks must be mutually
// independent: fn may only write state owned by its own index. With one
// worker (or n ≤ 1) it degenerates to a plain loop on the calling
// goroutine, so `workers=1` is exactly the serial code path.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) with ForEach's scheduling and returns the results
// ordered by index — the slot a result lands in depends only on its task
// index, so the returned slice is identical at any worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
