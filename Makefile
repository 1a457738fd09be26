GO ?= go

.PHONY: build vet test test-purego cross loc bench-module race race-pipeline race-fault bench-kernels fuzz-kernels bench-pipeline bench-sampler bench-ingest bench-serve bench-fault bench-eval bench-baseline check

build:
	$(GO) build ./...

# vet's asmdecl check holds internal/tensor's assembly to its Go
# declaration (argument offsets and frame size).
vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite with the AVX2 assembly compiled out (the purego tag), so
# every test also passes on the Go axpy loops.
test-purego:
	$(GO) test -tags purego ./...

# The fallback must build where there is no assembly at all.
cross:
	GOARCH=arm64 $(GO) build ./...

# Net line count is a reported metric (ROADMAP aim 2): non-blank,
# non-comment, non-test Go lines per package, bench/ apart, then the total.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec dirname {} \; | sort -u); do \
		printf '%6d  %s\n' $$(cat $$(ls $$d/*.go | grep -v _test.go) | grep -vcE '^\s*(//.*)?$$') $$d; \
	done
	@printf '%6d  total (non-test, non-bench)\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | grep -vcE '^\s*(//.*)?$$')

# The benchmark is a module of its own that compiles against this one
# (train.Source, train.EpochStats, Session.Task().Source()); nothing else
# builds it, so a change to those packages is vetted and tested here.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Full-epoch NC/LP pipelines and the kernel fan-out under the race
# detector (the kernels spawn real goroutines even at GOMAXPROCS=1).
race:
	$(GO) test -race ./...

# Short-mode kernel benchmarks with hard floors: >=2x blocked-matmul
# throughput at 4 workers vs the naive reference, >=1.2x fused
# dequantizing score vs materialize-then-score (fp16 and int8), >=1.5x
# for the training-shape kernels through axpyN vs the per-term axpy loop
# (on an AVX2 machine), and 0 allocs/batch in the arena training step.
# Writes to /tmp so the checked-in full-shape baseline is never clobbered
# with incomparable short-mode numbers.
bench-kernels:
	$(GO) run ./cmd/benchkernels -short -check -o /tmp/BENCH_kernels.json

# Twenty seconds of native fuzzing on each SIMD primitive with a loop
# inside the assembly: bytes become an axpyN call (width, term count,
# strides, index, skip flag, edge values) whose assembly result must equal
# the scalar definition bit for bit, and an expRow call (length, maximum,
# values around math.Exp's branch points) whose outputs and sum must equal
# the math.Exp loop's. The seed corpora alone run in every plain `go test`.
fuzz-kernels:
	$(GO) test ./internal/tensor -run '^$$' -fuzz='^FuzzAxpyN$$' -fuzztime=20s
	$(GO) test ./internal/tensor -run '^$$' -fuzz='^FuzzExpRow$$' -fuzztime=20s

# Race coverage focused on the epoch executor: its ordering/bounding tests
# and the every-small-configuration check against the serial oracle, then
# full NC and LP epochs at WithPipeline(2)/WithWorkers(4) and, since every
# geometry runs the same goroutines, at depth 0 too (the golden
# trajectories run depth 0 and 2 at 1 and 4 workers; the nil-context test
# runs depth 0 with one), and the epochs that skip visits without
# examples (NC at depth 0 and 2, LP at depth 2).
race-pipeline:
	$(GO) test -race ./internal/pipeline/
	$(GO) test -race -run 'Pipeline|Golden|NilContext|Walk' ./marius/

# Short-mode pipeline benchmark with hard floors: >=1.5x epoch speedup
# over the serial loop under a calibrated disk throttle, a loss
# trajectory identical to the serial run (the equivalence contract),
# and an instrumentation probe — metrics + tracing must stay under a 2%
# hot-path overhead bound and leave losses untouched. Writes to /tmp so
# the checked-in full-size baseline is never clobbered.
bench-pipeline:
	$(GO) run ./cmd/benchpipeline -short -check -o /tmp/BENCH_pipeline.json

# Short-mode sampling benchmark with hard floors: >=2x per-visit
# adjacency refresh via the incremental bucket-segmented index vs the
# from-scratch rebuild (at buffer capacity 4), and 0 allocs/batch on the
# steady-state DENSE sampling path. Writes to /tmp so the checked-in
# full-shape baseline is never clobbered.
bench-sampler:
	$(GO) run ./cmd/benchsampler -short -check -o /tmp/BENCH_sampler.json

# Short-mode end-to-end ingestion gate: export a seeded graph to raw
# TSV, preprocess it with the streaming ingester under a memory cap
# small enough to force a multi-run external sort, validate every
# checksum, then train pipelined COMET straight from the prepared
# directory. Hard floors: >=2 spill runs under the cap, and per-epoch
# losses plus the final checkpoint byte-identical to a serial session
# over the equivalent in-memory graph. Also runs the quantized-ingest
# differential: an fp16-prepared NC dataset must train bit-identically
# across worker counts, serve identically from disk-paged and in-memory
# stores, and land within 5% of the float32 loss. Same target as the CI
# ingest job, so CI and local runs gate one configuration.
bench-ingest:
	$(GO) run ./cmd/benchingest -short -check -o /tmp/BENCH_ingest.json

# Short-mode serving gate: prepare and briefly train NC and LP datasets,
# serve their checkpoints through internal/serve, and drive closed-loop
# clients at concurrency 1/16/64 against predict and top-k. Hard floors:
# served NC logits byte-identical to the evaluation forward, LP top-k
# byte-identical to the full-ranking ScoreAll kernel, concurrent results
# equal to single-request results, and sustained QPS above conservative
# floors. Observability gates ride along: /metrics must lint as
# Prometheus text with the serve/storage/snapshot families present, and
# a span-tracing server must hold >=98% of the untraced QPS. Same
# target as the CI serve job.
bench-serve:
	$(GO) run ./cmd/benchserve -short -check -o /tmp/BENCH_serve.json

# Race coverage focused on the fault-tolerance surface: the injector's
# own determinism/crash tests, the storage retry and evict write-back
# fault tests with the partition buffer's model (its -short bound: the
# model is single-goroutine, so the race detector only slows it) and the
# store's restore/flush/prefetch and random-operation tests, serve
# resilience (shedding, deadlines, panic containment), and the
# crash-resume differential.
race-fault:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -short -run 'Fault|Evict|Retry|Buffer|Restore|Flush|Prefetch|Disk' ./internal/storage/
	$(GO) test -race -run 'Shed|Timeout|Panic|Reload' ./internal/serve/
	$(GO) test -race -run 'Crash|Resume|Journal' ./internal/ckpt/ ./internal/dataset/ ./marius/

# Short-mode chaos harness with hard gates: a prep killed mid-write must
# recover via -force to a byte-identical dataset, training under random
# transient/short IO must match the clean run bit for bit, a run killed
# at a random write count must Resume to the uninterrupted trajectory
# and checkpoint, an overloaded server must shed fast (503+Retry-After)
# and degrade/recover its health, and an injected dispatcher panic must
# be contained. Writes to /tmp so the checked-in full-size baseline is
# never clobbered.
bench-fault:
	$(GO) run ./cmd/benchfault -short -check -o /tmp/BENCH_fault.json

# Short-mode ranking-evaluation gate: time the streamed filtered-ranking
# protocol and the fused candidate-scoring kernel for every decoder
# (DistMult, ComplEx, TransE). Hard floors: MRR/Hits@k bitwise identical
# across worker counts, batch sizes and chunk widths; the fused scoring
# path bit-identical to the scalar RefScore reference; filtered MRR >=
# raw MRR; and throughput above conservative floors. Same target as the
# CI eval job. Writes to /tmp so the checked-in full-size baseline is
# never clobbered.
bench-eval:
	$(GO) run ./cmd/bencheval -short -check -o /tmp/BENCH_eval.json

# Refresh the checked-in full-shape baselines (commit the results).
bench-baseline:
	$(GO) run ./cmd/benchkernels -check -o BENCH_kernels.json
	$(GO) run ./cmd/benchpipeline -check -o BENCH_pipeline.json
	$(GO) run ./cmd/benchsampler -check -o BENCH_sampler.json
	$(GO) run ./cmd/benchingest -check -o BENCH_ingest.json
	$(GO) run ./cmd/benchserve -check -o BENCH_serve.json
	$(GO) run ./cmd/benchfault -check -o BENCH_fault.json
	$(GO) run ./cmd/bencheval -check -o BENCH_eval.json

# The full local gate: everything CI runs (test, race, race-pipeline,
# and every benchmark floor including the end-to-end ingest and serving
# paths).
check: build vet test test-purego cross loc bench-module race race-pipeline race-fault bench-kernels fuzz-kernels bench-pipeline bench-sampler bench-ingest bench-serve bench-fault bench-eval
