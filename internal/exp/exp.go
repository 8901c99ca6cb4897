// Package exp contains one driver per table and figure of the paper's
// evaluation, each returning structured results and able to print the same
// rows/series the paper reports; the multi-run MAC drivers run their
// simulations as cells of one runner, runCells. The cmd/experiments binary
// is a thin wrapper around these drivers.
package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Options scales an experiment: the full paper settings are slow (50 s runs,
// 50 repetitions); tests and benchmarks shrink them.
type Options struct {
	Seed     int64
	Duration sim.Time
	Warmup   sim.Time
	// Runs is the repetition count for Monte-Carlo experiments (Fig 14).
	Runs int
	// Trials is the per-point trial count for PHY Monte Carlos (Figs 6, 9).
	Trials int
	// Workers bounds the worker pool the drivers fan independent runs and
	// sweep points across; ≤ 0 means all cores. Every driver derives
	// per-task seeds and collects results in task order, so the numbers are
	// identical at any Workers value (see internal/parallel).
	Workers int
	// TraceSink, when non-nil, receives the NDJSON observability trace of
	// every simulation of the multi-run MAC drivers (all but Coexist and
	// Fig10). Each simulation traces into a shard of its own, written in
	// cell order as soon as every earlier cell has finished, so the stream
	// is byte-identical at any Workers value; a failed write is the
	// driver's error.
	TraceSink io.Writer
}

// Paper returns the evaluation-scale options (50 s runs as in §4.2.1).
func Paper() Options {
	return Options{Seed: 1, Duration: 50 * sim.Second, Warmup: sim.Second, Runs: 50, Trials: 1000}
}

// Quick returns options sized for interactive runs and tests.
func Quick() Options {
	return Options{Seed: 1, Duration: 4 * sim.Second, Warmup: 500 * sim.Millisecond, Runs: 8, Trials: 150}
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 4 * sim.Second
	}
	if o.Runs == 0 {
		o.Runs = 8
	}
	if o.Trials == 0 {
		o.Trials = 150
	}
	return o
}

// t10x2 is the paper's default simulation topology: T(10, 2) selected from
// the 40-node two-building campus trace (§4.2.1). randomT20x3 is Fig 14's
// T(20,3) selected from a 110-node random 800×800 m placement.
var (
	t10x2       = spec.Topology{Kind: "campus", APs: 10, Clients: 2}
	randomT20x3 = spec.Topology{Kind: "random", APs: 20, Clients: 3}
)

// hline prints a separator sized to the header.
func hline(w io.Writer, n int) {
	fmt.Fprintln(w, strings.Repeat("-", n))
}

// pointSeedStride spaces the base seeds of independent sweep points far
// enough apart that seeds derived within a point (shards at stride 101)
// never collide across points.
const pointSeedStride int64 = 1_000_003

// pointSeed derives the RNG seed of sweep point idx of an experiment.
func pointSeed(o Options, idx int) int64 {
	return parallel.Seed(o.Seed, idx, pointSeedStride)
}

// runCells builds and runs n independent simulation cells on o.Workers
// workers and returns keep(i, result) for every cell, in cell order. build
// must give each cell a network of its own, since engines register
// listeners on its medium. keep runs inside the worker, so no engine
// outlives its cell. The first error in cell order, from build or from the
// run, is returned instead. With o.TraceSink set, cell i traces into a shard
// of its own, which writeShards sends to the sink in cell order as the cells
// finish; a failed write is returned as an error.
func runCells[T any](o Options, n int, build func(i int) (core.Scenario, error), keep func(i int, r core.Result) T) ([]T, error) {
	vals := make([]T, n)
	errs := make([]error, n)
	var shards []*cellTrace
	var finished chan int // cells in the order they finish
	run := func() {
		parallel.ForEach(o.Workers, n, func(i int) {
			sc, err := build(i)
			if err == nil {
				if shards != nil {
					shards[i] = &cellTrace{}
					sc.Tracer = shards[i]
				}
				var r core.Result
				if r, err = core.RunScenario(sc); err == nil {
					vals[i] = keep(i, r)
				}
			}
			errs[i] = err
			if finished != nil {
				finished <- i
			}
		})
	}
	var werr error
	if o.TraceSink == nil {
		run()
	} else {
		shards, finished = make([]*cellTrace, n), make(chan int, n)
		go func() {
			run()
			close(finished)
		}()
		werr = writeShards(o.TraceSink, finished, shards, errs)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if werr != nil {
		return nil, fmt.Errorf("exp: trace write: %w", werr)
	}
	return vals, nil
}

// cellTrace is one cell's trace shard: its records, NDJSON-encoded in event
// order.
type cellTrace struct{ buf []byte }

// Emit implements obs.Tracer.
func (c *cellTrace) Emit(r obs.Record) { c.buf = obs.AppendRecord(c.buf, r) }

// writeShards writes the cells' shards to w in cell order as their cells
// arrive on finished: shard i goes out, and is freed, once cells 0..i have
// finished, so only the shards of cells that finished ahead of an earlier
// one wait in memory. Writing stops at the first failed cell, whose error
// the driver returns, and at the first failed write, which it returns.
func writeShards(w io.Writer, finished <-chan int, shards []*cellTrace, errs []error) error {
	done := make([]bool, len(shards))
	next, stop := 0, false
	var err error
	for i := range finished {
		done[i] = true
		for ; next < len(done) && done[next]; next++ {
			stop = stop || errs[next] != nil || err != nil
			if !stop {
				_, err = w.Write(shards[next].buf)
			}
			shards[next] = nil
		}
	}
	return err
}

// aggregateMbps is the keep function of cells that report only their
// aggregate throughput.
func aggregateMbps(_ int, r core.Result) float64 { return r.AggregateMbps }
