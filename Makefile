GO ?= go

.PHONY: build vet test test-purego cross loc bench-module race race-pipeline race-fault fuzz-kernels fuzz-parsers check

build:
	$(GO) build ./...

# vet's asmdecl check holds internal/tensor's assembly to its Go
# declaration (argument offsets and frame size).
vet:
	$(GO) vet ./...

# Every correctness gate is an ordinary test beside the code it guards:
# the serial ≡ pipelined, served ≡ evaluated, fused ≡ reference,
# crash/weather ≡ clean differentials and the zero-allocation contracts.
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
# Timing is its job, parent against change: `bash bench/run.sh`.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Full-epoch NC/LP pipelines, the kernel fan-out, the partition buffer,
# serve resilience and the crash/weather differentials under the race
# detector (the kernels spawn real goroutines even at GOMAXPROCS=1).
race:
	$(GO) test -race ./...

# Twenty seconds of native fuzzing on each SIMD primitive with a loop
# inside the assembly, and on the fused loss built over them: bytes become
# an axpyN call (width, term count, strides, index, skip flag, edge values)
# whose assembly result must equal the scalar definition bit for bit, an
# expRow call (length, maximum, values around math.Exp's branch points)
# whose outputs and sum must equal the math.Exp loop's, a dequantRow call
# (kind, width, offset, int8 scale and zero as raw bits, stored bytes)
# whose output must equal the element functions', and a link-prediction
# batch (rows, negatives, scores with edge values and ties) whose PosNegCE
# loss, gradients and MRR must equal the concatenated softmax
# cross-entropy's. The seed corpora alone run in every plain `go test`.
fuzz-kernels:
	$(GO) test ./internal/tensor -run '^$$' -fuzz='^FuzzAxpyN$$' -fuzztime=20s
	$(GO) test ./internal/tensor -run '^$$' -fuzz='^FuzzExpRow$$' -fuzztime=20s
	$(GO) test ./internal/tensor -run '^$$' -fuzz='^FuzzDequantRow$$' -fuzztime=20s
	$(GO) test ./internal/tensor -run '^$$' -fuzz='^FuzzPosNegCE$$' -fuzztime=20s

# Twenty seconds of native fuzzing on each parser of untrusted bytes:
# bytes become a dataset's manifest.json beside an empty edges.bin, and
# OpenDataset must refuse them with a typed error or open a dataset whose
# edge store answers every bucket length; either way every payload name
# stays inside the dataset directory (the reader runs on a filesystem
# that records each path it touches); and bytes become a checkpoint file,
# which ckpt.Read must refuse with a typed error or read back with a table
# and accumulators that match its recorded shape. The seed corpora alone
# run in every plain `go test`.
fuzz-parsers:
	$(GO) test ./internal/storage -run '^$$' -fuzz='^FuzzReadManifest$$' -fuzztime=20s
	$(GO) test ./internal/ckpt -run '^$$' -fuzz='^FuzzReadCheckpoint$$' -fuzztime=20s

# A local shortcut; `race` covers it. The epoch executor under the race
# detector: its ordering/bounding tests and the every-small-configuration
# check against the serial oracle, then full NC and LP epochs at
# WithPipeline(2)/WithWorkers(4) and, since every geometry runs the same
# goroutines, at depth 0 too (the golden trajectories run depth 0 and 2 at
# 1 and 4 workers; the nil-context test runs depth 0 with one), and the
# epochs that skip visits without examples (NC at depth 0 and 2, LP at
# depth 2).
race-pipeline:
	$(GO) test -race ./internal/pipeline/
	$(GO) test -race -run 'Pipeline|Golden|NilContext|Walk' ./marius/

# A local shortcut; `race` covers it. The fault-tolerance surface under
# the race detector: the injector's own determinism/crash tests, the
# storage retry and evict write-back fault tests with the partition
# buffer's models (TestBufferExhaustive, and TestBufferScheduleExhaustive
# and TestScheduleBelady for the IO schedule compiled from a plan, at
# their -short bounds: the models are single-goroutine, so the race
# detector only slows them) and the store's restore/flush/planned-load and
# random-operation tests, the write-behind read that lands before its
# victim's visit is released (TestWriteBehindReadsBeforeRelease), a
# view's missing edge buckets and the whole edge file each read as one
# throttled request (TestDiskEdgeStoreReadBucketsChargesOneWait with its
# ReadAllEdges case, TestSwapReadsMissesAsOneRequest), the
# lp-disk-rw-shaped session whose compiled IO, edge bytes included, must
# not depend on depth or workers (TestScheduleLPDiskRW) and whose epochs
# count every write-back they owe (TestWriteBehindEpochOwnsItsIO), the
# epoch that refuses a training bucket outside its visit before any step
# (TestLPRefusesBucketOutsideItsVisit), serve
# resilience (shedding, deadlines, panic containment, reload), the serve
# dispatch rule (what is queued is taken at once, an idle request never
# waits) with the three gated co-batch
# differentials, served predictions over the in-memory feature table
# against the evaluation forward, and the crash-resume and
# transient-weather differentials.
race-fault:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -short -run 'Fault|Evict|Retry|Buffer|Schedule|Restore|Flush|Prefetch|Disk|WriteBehind|SwapReadsMisses' ./internal/storage/
	$(GO) test -race -run 'RefusesBucket' ./internal/train/
	$(GO) test -race -run 'Shed|Timeout|Panic|Reload|Dispatch|Idle|MicroBatched|TopKGNNDeterministic|TopKFiltered|PredictMatchesEval' ./internal/serve/
	$(GO) test -race -run 'Crash|Resume|Journal|Weather|Schedule|WriteBehind' ./internal/ckpt/ ./internal/dataset/ ./marius/

# The full local gate: everything CI runs.
check: build vet test test-purego cross loc bench-module race fuzz-kernels fuzz-parsers
