# Repo verification targets. `make ci` is the gate every change must pass;
# the race target is the correctness backstop for every concurrent path:
# the parallel experiment harness (internal/parallel and everything fanned
# out through it) and the sharded runner.
# Performance evidence comes from the end-to-end benchmark, `bash
# bench/run.sh` (see bench/README.md); the hot paths' zero-allocation
# contracts are plain tests that `go test ./...` runs.

GO ?= go

.PHONY: ci vet fmt specs build test examples trace-smoke race race-hot race-shard bench-smoke bench profile-fig14 profile-fig7 profile-tcp loc

ci: vet fmt build test specs examples trace-smoke race race-hot race-shard bench-smoke

vet:
	$(GO) vet ./...

# gofmt gate: fails listing the unformatted files, fixes nothing.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Validate every example scenario spec (shape, scheme, topology, traffic).
specs:
	$(GO) run ./cmd/speclint examples/specs/*.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Build and run every example program once (a few seconds in total), so an
# API change that breaks one at run time fails CI, not just compilation.
examples:
	@set -e; for d in examples/*/; do \
		[ -f $$d/main.go ] || continue; \
		echo "run $$d"; $(GO) run ./$$d >/dev/null; \
	done

# Pipe a short traced, metrics-on run through tracedump, so a trace that
# tracedump cannot read fails CI (a writer that fails leaves tracedump an
# empty stream, which it rejects too). The run's report goes to stderr.
# The second command does the same for the multi-run experiment runner's
# merged trace (Table 3: six cells, three schemes).
trace-smoke:
	$(GO) run ./cmd/domino-sim -topo fig7 -duration 300ms -warmup 50ms -metrics -tracefile - | $(GO) run ./cmd/tracedump -slots 0 >/dev/null
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; set -e; \
	$(GO) run ./cmd/experiments -run table3 -duration 600ms -trace "$$tmp" >/dev/null; \
	$(GO) run ./cmd/tracedump -slots 0 "$$tmp" >/dev/null

race:
	$(GO) test -race ./internal/...

# Race re-run of the hot-path packages: the pooled kernel, the planned FFT
# (shared immutable plans across goroutines) and the obs layer. Focused and fast enough to run on every change even when the full
# race sweep would be skipped.
race-hot:
	$(GO) test -race -count=1 ./internal/sim ./internal/ofdm ./internal/obs

# Race re-run of the sharded-runner stack: the shard package (per-domain
# goroutines, the merge), the kernel it drives, and the ForEach
# fan-out underneath. The shard tests cover single-domain transparency,
# multi-domain differentials and worker-count determinism, so -race here
# checks every cross-goroutine edge the sharded runner adds. The second
# command repeats worker-count determinism at GOMAXPROCS 1 and 4: the merged
# output must not depend on how many cores execute the domains either.
race-shard:
	$(GO) test -race -count=1 ./internal/shard ./internal/sim ./internal/parallel
	$(GO) test -race -count=1 -cpu 1,4 -run '^TestShardCountDeterminism$$' ./internal/shard

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# `go test ./...` never builds it. Vet it and run its smoke tests here so an
# API change in core, shard or obs that breaks it fails CI, not the
# benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Full benchmark sweep (one iteration per table/figure; laptop-minutes),
# then one conflict-graph build of the 500-AP grid campus.
# `go test -run '^$' -bench ShardWorkers -cpu 1,2,4,8 .` is the sharded
# runner's workers-by-cores curve.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .
	$(GO) test -run '^$$' -bench NewConflictGraph -benchmem -benchtime=1x ./internal/topo

# CPU and allocation profiles of one BenchmarkFig14 iteration (3 random
# T(20,3) placements x 2 s, DCF then DOMINO). The allocation profile samples
# one allocation per 4 KiB. Both profiles and the test binary stay in a
# fresh temporary directory, named on the last line; the -top tables go to
# stdout (CPU by flat time, allocations by object count, then the heap still
# in use when the profile was written, by bytes).
profile-fig14:
	@dir=$$(mktemp -d); set -e; \
	$(GO) test -run '^$$' -bench '^BenchmarkFig14$$' -benchtime 1x -o $$dir/repro.test \
		-cpuprofile $$dir/cpu.pprof -memprofile $$dir/mem.pprof -memprofilerate 4096 . ; \
	$(GO) tool pprof -top -nodecount 30 $$dir/repro.test $$dir/cpu.pprof; \
	$(GO) tool pprof -top -nodecount 30 -sample_index alloc_objects $$dir/repro.test $$dir/mem.pprof; \
	$(GO) tool pprof -top -nodecount 30 -sample_index inuse_space $$dir/repro.test $$dir/mem.pprof; \
	echo "profiles in $$dir"

# The same three tables for one BenchmarkFig7Saturated iteration (DCF,
# CENTAUR, DOMINO and Omniscient saturated on Fig 7 for 60 s each, as the
# fig7-mac workload runs them): the MAC engines and DOMINO's control plane
# rather than the PHY.
profile-fig7:
	@dir=$$(mktemp -d); set -e; \
	$(GO) test -run '^$$' -bench '^BenchmarkFig7Saturated$$' -benchtime 1x -o $$dir/repro.test \
		-cpuprofile $$dir/cpu.pprof -memprofile $$dir/mem.pprof -memprofilerate 4096 . ; \
	$(GO) tool pprof -top -nodecount 30 $$dir/repro.test $$dir/cpu.pprof; \
	$(GO) tool pprof -top -nodecount 30 -sample_index alloc_objects $$dir/repro.test $$dir/mem.pprof; \
	$(GO) tool pprof -top -nodecount 30 -sample_index inuse_space $$dir/repro.test $$dir/mem.pprof; \
	echo "profiles in $$dir"

# The same three tables for one BenchmarkT10x2TCP iteration (DOMINO, CENTAUR
# and DCF on T(10,2) with TCP Reno at 10/4 Mbps for 10 s each, as the
# t10x2-tcp workload runs them): the flows' ACKs, token clocks and timers
# through the traffic, MAC and kernel layers.
profile-tcp:
	@dir=$$(mktemp -d); set -e; \
	$(GO) test -run '^$$' -bench '^BenchmarkT10x2TCP$$' -benchtime 1x -o $$dir/repro.test \
		-cpuprofile $$dir/cpu.pprof -memprofile $$dir/mem.pprof -memprofilerate 4096 . ; \
	$(GO) tool pprof -top -nodecount 30 $$dir/repro.test $$dir/cpu.pprof; \
	$(GO) tool pprof -top -nodecount 30 -sample_index alloc_objects $$dir/repro.test $$dir/mem.pprof; \
	$(GO) tool pprof -top -nodecount 30 -sample_index inuse_space $$dir/repro.test $$dir/mem.pprof; \
	echo "profiles in $$dir"

# Go line counts outside bench/ and hidden directories: non-test files, then
# _test.go files.
loc:
	@find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs echo "non-test Go lines:"
	@find . \( -path ./bench -o -path './.*' \) -prune -o -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs echo "test Go lines:"
