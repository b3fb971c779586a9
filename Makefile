GO ?= go

.PHONY: all build check fmt-check vet test test-race test-short bench bench-obs bench-kernels bench-serve bench-cluster bench-sched bench-diff bench-dash costmodel experiments quick-experiments report fuzz clean

all: build check

build:
	$(GO) build ./...
	$(GO) vet ./...

## Full verification gate: formatting, vet, and the race-enabled test suite.
## The default `make` target runs this, so concurrency regressions (executor
## workers, health tracker, MPMC queue, metrics registry) cannot slip through
## a plain build. The obs package gets an extra high-iteration race pass: it
## is touched from every worker goroutine in the runtime.
## The allocation guard runs without -race: the race detector makes
## sync.Pool randomly drop Puts, so arena accounting is only meaningful in
## a plain build (the test skips itself under -race).
## The serve package gets a dedicated high-iteration race pass: replicas
## share compiled modules and the weight pack cache while drawing
## activations from separate arenas, and the smoke test pins the pipelined
## serving stack's throughput floor over the serial Infer loop.
## The cluster package gets a dedicated chaos smoke: the crash-failover and
## trace-determinism tests re-run under -race, pinning the fabric's
## zero-loss and byte-replayable guarantees on every gate.
## The tensor package also runs as GOARCH=386 (native on x86-64 Linux),
## which exercises the portable Go microkernel instead of the amd64
## assembly, and is vetted as GOARCH=arm64; go vet's asmdecl check covers
## the assembly's frame layout on amd64.
check: fmt-check vet
	$(GO) test -race ./...
	GOARCH=386 $(GO) test ./internal/tensor
	GOARCH=arm64 $(GO) vet ./internal/tensor
	$(GO) test -race -count=2 ./internal/obs/...
	$(GO) test -race -count=2 -run 'TestConcurrentExecuteArena|TestServeSmoke' ./internal/serve/
	$(GO) test -race -count=1 -run 'TestClusterChaosCrashFailover|TestClusterTraceDeterminism' ./internal/cluster/
	$(GO) test -count=1 -run TestArenaCutsSteadyStateAllocs ./internal/runtime/
	$(MAKE) bench-diff
	@./bin/duet-vet -summary .

## Wall-clock budget for the vet target, in seconds. The recipe prints the
## elapsed time every run and fails when the budget is blown, so analyzer
## slowdowns surface as a red gate instead of silently taxing every check.
VET_BUDGET ?= 180

## duet-vet is a file target on its own sources (the analysis framework,
## the command, and the verify package it prints the pass roster from), so
## editing an analyzer rebuilds the binary. A stale bin/duet-vet previously
## let `make vet` pass against code the current analyzers would flag.
DUET_VET_SRC := $(wildcard cmd/duet-vet/*.go) $(wildcard internal/analysis/*.go) $(wildcard internal/verify/*.go) go.mod

bin/duet-vet: $(DUET_VET_SRC)
	$(GO) build -o $@ ./cmd/duet-vet

## Static analysis gate: stock go vet plus the repo's custom analyzer suite
## (vclockpurity, arenainto, obsnames, lockorder, chanleak, sharednoescape)
## run through the real -vettool protocol. govulncheck runs when installed;
## the container image does not ship it, so its absence is not a failure.
vet: bin/duet-vet
	@start=$$(date +%s) && \
	$(GO) vet ./... && \
	$(GO) vet -vettool=$(abspath bin/duet-vet) ./... && \
	if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi && \
	end=$$(date +%s) && elapsed=$$((end - start)) && \
	echo "vet: completed in $${elapsed}s (budget $(VET_BUDGET)s)" && \
	if [ $$elapsed -gt $(VET_BUDGET) ]; then \
		echo "vet: exceeded the $(VET_BUDGET)s timing budget"; exit 1; fi

## Fail if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: check
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

## Regenerate every paper table/figure at paper scale (5000 runs).
experiments:
	$(GO) run ./cmd/duet-bench | tee experiments_full.txt

## Fast smoke pass over all experiments.
quick-experiments:
	$(GO) run ./cmd/duet-bench -quick

## Machine-readable report at paper scale (for plotting).
report:
	$(GO) run ./cmd/duet-bench -json report.json

## Statistical perf-regression gate: re-run every suite at quick scale
## with seed-varied fresh runs and compare per-metric sample sets against
## the committed BENCH_*.json baselines (Mann-Whitney U + median CI,
## direction-aware per-suite schema). Exits non-zero when a gated metric
## regresses beyond its threshold.
bench-diff:
	$(GO) run ./cmd/duet-benchdiff

## Render the static trend dashboard (docs/bench/index.html + trends.json)
## from the run-history sections of the committed baselines.
bench-dash:
	$(GO) run ./cmd/duet-benchdiff -dashboard

## Regenerate the observability baseline: metrics snapshot of a fully
## exercised instrumented engine plus the scheduler's placement audit.
bench-obs:
	$(GO) run ./cmd/duet-bench -quick -obs BENCH_obs.json

## Regenerate the kernel benchmark baseline: the packed/blocked × pool/serial
## matrix over matmul, linear, and conv2d shapes, plus the fusion ablation.
## Quick scale, like every other committed baseline: the bench-diff gate
## re-runs the suite quick, and comparing across sampling scales injects a
## systematic offset into the geomean gate.
bench-kernels:
	$(GO) run ./cmd/duet-bench -quick -kernels BENCH_kernels.json

## Regenerate the serving benchmark baseline: serial Infer loop vs the
## concurrent server in unbatched, batched, and batched+pipelined modes,
## each under burst (capacity) and Poisson (tail latency) load.
bench-serve:
	$(GO) run ./cmd/duet-bench -quick -serve BENCH_serve.json

## Regenerate the cluster fault-tolerance baseline: the same request stream
## served fault-free and under the committed chaos schedule (primary crash +
## seeded message loss), with the bit-identical-outputs and replayable-trace
## invariants checked and recorded.
bench-cluster:
	$(GO) run ./cmd/duet-bench -quick -cluster BENCH_cluster.json

## Regenerate the cost-model/search baseline: measured vs predicted vs
## hybrid profile sources (makespan ratios, micro-benchmark reduction) and
## the wide search vs greedy correction, plus the regressor's train-set
## accuracy. The prediction-accuracy gate (sched/gate/mape_ok) rides into
## `make check` through bench-diff like every other suite.
bench-sched:
	$(GO) run ./cmd/duet-bench -quick -sched BENCH_sched.json

## Refit the committed latency-regressor artifact from noiseless zoo
## profiles and print its train-set accuracy.
costmodel:
	$(GO) run ./cmd/duet-profile -train COSTMODEL.json

## Fuzz the Relay parser for 30s.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/relay

clean:
	rm -f report.json trace.json
	rm -rf bin
