# Repo verification targets. `make ci` is the gate every change must pass;
# the race target is the correctness backstop for the parallel experiment
# harness (internal/parallel and everything fanned out through it).
# Performance evidence comes from the end-to-end benchmark, `bash
# bench/run.sh` (see bench/README.md); the hot paths' zero-allocation
# contracts are plain tests that `go test ./...` runs.

GO ?= go

.PHONY: ci vet fmt specs build test race race-hot race-shard race-serve bench-smoke bench

ci: vet fmt build test specs race race-hot race-shard race-serve bench-smoke

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

race:
	$(GO) test -race ./internal/...

# Race re-run of the hot-path packages: the pooled kernel, the planned FFT
# (shared immutable plans across goroutines) and the obs layer. Focused and fast enough to run on every change even when the full
# race sweep would be skipped.
race-hot:
	$(GO) test -race -count=1 ./internal/sim ./internal/ofdm ./internal/obs

# Race re-run of the sharded-runner stack: the shard package (per-domain
# goroutines, cross-shard mailboxes), the kernel it drives, and the ForEach
# fan-out underneath. The shard tests cover single-domain transparency,
# multi-domain differentials and worker-count determinism, so -race here
# checks every cross-goroutine edge the sharded runner adds. The second
# command repeats worker-count determinism at GOMAXPROCS 1 and 4: the merged
# output must not depend on how many cores execute the windows either.
race-shard:
	$(GO) test -race -count=1 ./internal/shard ./internal/sim ./internal/parallel
	$(GO) test -race -count=1 -cpu 1,4 -run '^TestShardCountDeterminism$$' ./internal/shard

# Race re-run of the run-lifecycle stack: the daemon (worker fleet, HTTP
# handlers, trace streaming, pause/cancel control racing the step loop), the
# checkpoint/restore property tests underneath it, and the dynamic pool. This
# is the domino-simd smoke: every daemon test drives the real HTTP API.
race-serve:
	$(GO) test -race -count=1 ./internal/run ./internal/parallel

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# `go test ./...` never builds it. Vet it and run its smoke tests here so an
# API change in core, shard or obs that breaks it fails CI, not the
# benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Full benchmark sweep (one iteration per table/figure; laptop-minutes).
# `go test -run '^$' -bench ShardWorkers -cpu 1,2,4,8 .` is the sharded
# runner's workers-by-cores curve.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .
