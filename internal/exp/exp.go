// Package exp contains one driver per table and figure of the paper's
// evaluation, each returning structured results and able to print the same
// rows/series the paper reports; the multi-run MAC drivers run their
// simulations as cells of one runner, runCells. The cmd/experiments binary
// is a thin wrapper around these drivers.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
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
	// Fig10). A driver buffers one shard per simulation until its last run
	// ends, then writes them in cell order, so the stream is byte-identical
	// at any Workers value; a failed write is the driver's error.
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

// T10x2 builds the paper's default simulation topology: T(10, 2) selected
// from the 40-node two-building campus trace (§4.2.1).
func T10x2(seed int64) (*topo.Network, error) {
	tr := topo.CampusTrace(seed)
	rng := rand.New(rand.NewSource(seed))
	net, err := topo.BuildT(tr, 10, 2, phy.DefaultConfig(), phy.Rate12, rng)
	if err != nil {
		return nil, fmt.Errorf("exp: T(10,2) infeasible on campus trace seed %d: %w", seed, err)
	}
	return net, nil
}

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
// run, is returned instead. With o.TraceSink set, cell i traces into shard i
// of an obs.Sharded and the shards are written to the sink in cell order
// after every cell has run; a failed write is returned as an error.
func runCells[T any](o Options, n int, build func(i int) (core.Scenario, error), keep func(i int, r core.Result) T) ([]T, error) {
	var sharded *obs.Sharded
	if o.TraceSink != nil {
		sharded = obs.NewSharded(n)
	}
	vals := make([]T, n)
	errs := make([]error, n)
	parallel.ForEach(o.Workers, n, func(i int) {
		sc, err := build(i)
		if err == nil {
			if sharded != nil {
				sc.Tracer = sharded.Shard(i)
			}
			var r core.Result
			if r, err = core.RunScenario(sc); err == nil {
				vals[i] = keep(i, r)
			}
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if sharded != nil {
		if _, err := sharded.WriteTo(o.TraceSink); err != nil {
			return nil, fmt.Errorf("exp: trace write: %w", err)
		}
	}
	return vals, nil
}

// aggregateMbps is the keep function of cells that report only their
// aggregate throughput.
func aggregateMbps(_ int, r core.Result) float64 { return r.AggregateMbps }
