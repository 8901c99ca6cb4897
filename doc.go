// Package repro is a from-scratch Go reproduction of "DOMINO: Relative
// Scheduling in Enterprise Wireless LANs" (Zhou, Li, Srinivasan, Sinha;
// CoNEXT 2013).
//
// The library implements the paper's full stack: a deterministic
// discrete-event radio simulator (internal/sim, internal/phy), enterprise
// topologies and conflict graphs (internal/topo), Gold-code signature
// triggering (internal/gold), Rapid OFDM Polling (the PHY in internal/ofdm;
// the decode rule and the A2P/UORA variants in internal/poll), the
// strict/RAND scheduler and its omniscient executor (internal/strict), one
// registry those pluggable parts share (internal/registry), the
// relative-schedule converter (internal/convert), the
// DOMINO engine itself (internal/domino), and the DCF and CENTAUR baselines
// (internal/dcf, internal/centaur). internal/core assembles complete
// scenarios, and internal/exp regenerates every table and figure of the
// paper's evaluation; see cmd/experiments and the examples directory.
//
// The benchmarks in this package (bench_test.go) are the per-table/figure
// regeneration harness: `go test -bench=. -benchmem` re-derives the headline
// numbers and reports them as benchmark metrics.
package repro
