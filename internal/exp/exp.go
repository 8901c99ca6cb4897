// Package exp contains one driver per table and figure of the paper's
// evaluation, each returning structured results and able to print the same
// rows/series the paper reports. The cmd/experiments binary and the
// repository's benchmarks are thin wrappers around these drivers.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

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
	// the drivers that support it (Fig2, Fig14). Each simulation run writes
	// into its own obs.Sharded shard and the shards are concatenated in run
	// order, so the stream is byte-identical at any Workers value.
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

// shardTracer returns shard i of s, or a nil tracer when tracing is off.
func shardTracer(s *obs.Sharded, i int) obs.Tracer {
	if s == nil {
		return nil
	}
	return s.Shard(i)
}

// errCell pairs a parallel task's result with its error so driver fan-outs
// can propagate failures instead of panicking inside the worker pool.
type errCell[T any] struct {
	v   T
	err error
}

// firstErr returns the first non-nil error in task order.
func firstErr[T any](cells []errCell[T]) error {
	for _, c := range cells {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}
