// Package repro is a from-scratch Go reproduction of "MariusGNN:
// Resource-Efficient Out-of-Core Training of Graph Neural Networks"
// (Waleffe, Mohoney, Rekatsinas, Venkataraman — EuroSys 2023).
//
// The public API is the marius package: a task-polymorphic Session built
// from functional options, with a context-aware run loop, structured
// evaluation results and checkpoint save/resume. Quickstart:
//
//	g := gen.SBM(gen.DefaultSBM(20_000, 42))
//	sess, err := marius.New(marius.NodeClassification(), g,
//		marius.WithModel(marius.GraphSage),
//		marius.WithFanouts(15, 10, 5),
//		marius.WithDim(64),
//		marius.WithSeed(42),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer sess.Close()
//	res, err := sess.Run(ctx,
//		marius.Epochs(10),
//		marius.EarlyStopping(3, 0.001),
//		marius.CheckpointTo("run.ckpt", 1),
//		marius.OnEpoch(func(p marius.Progress) error { fmt.Println(p.Stats); return nil }),
//	)
//	test, err := sess.Evaluate(marius.TestSplit)
//
// Disk-based out-of-core training (the paper's headline configuration)
// swaps one option: marius.WithDisk(dir, marius.Partitions(16),
// marius.Capacity(4)), with the §6 auto-tuner filling anything left
// unset. Values set explicitly (and a prepared dataset's partition count)
// are kept; a tuned capacity is clamped to [2, p], and a tuned logical
// partition count COMET cannot group p and c by falls back to p.
//
// # Kernel parallelism
//
// The compute substrate (internal/tensor) plays the role of the paper's
// dense GPU kernels: blocked, multi-goroutine matmuls, fused
// gather+segment reductions (Algorithm 3 with the gathered intermediate
// never materialized), and a fused gather+matmul for embedding lookups
// (DistMult negative scoring). marius.WithWorkers(n) is a single knob for
// both pipeline stages: n sampling workers feed the compute stage, and
// every kernel in the forward/backward pass may fan out to n goroutines.
// Kernel parallelism only ever partitions output rows or segments — no
// floating-point reduction is ever split — so kernel results are bitwise
// identical at every worker count. Under the matmuls, the fused scoring
// kernels and the segment sums sits one SIMD primitive, tensor's axpy
// (y[j] += a·x[j]): AVX2 assembly on amd64 when CPUID reports it, a Go loop
// elsewhere and under -tags purego, with no option to choose between them.
// A lane owns one output element and rounds the product and the sum
// separately, as the scalar loop does (a fused multiply-add would round
// once, so it is forbidden), which makes the two paths bit-identical:
// checkpoints, losses and served bytes do not depend on which one ran. Dot
// products reach it by packing the right-hand rows into a transposed panel,
// so the reduction runs down the lanes, never across them. Where one output
// row takes many terms (the matmuls, the scoring backward, the segment
// sums) the loop over the terms is inside the assembly too (axpyN): the row
// stays in registers from its first term to its last, stored once. The
// order of the terms, the two roundings and the skipping of zero
// coefficients are unchanged, so this path is bit-identical as well. The one
// exception to the no-FMA rule is the softmax's exponentials: their
// assembly runs math.Exp's own instruction sequence four lanes at a time,
// fused multiply-adds included, because and only where math.Exp uses them
// (on amd64, exactly when the CPU has FMA), and adds the lanes to the
// float64 sum one at a time in order, so the losses are those of the
// scalar math.Exp loop bit for bit. The kernels' own products and sums
// never fuse.
//
// The conformance tests hold every kernel to a retained naive reference,
// bit for bit; the benchmark's tensor.matmul_gflops_w1/wN and
// tensor.matmul_scaling report their speed parent against change, and
// BenchmarkAxpyNTrainShapes and BenchmarkGatherMatMulTBDequant time axpyN
// and the fused dequantizing kernel against the loops they replaced.
//
// # The arena
//
// Each trainer's compute stage owns a tensor.Arena: every activation and
// gradient of a mini batch is carved from recycled slabs and released in
// one Arena.Reset at batch end, so steady-state training performs zero
// per-batch heap allocations on the kernel path. Ownership is strict:
// arena-backed tensors (everything an arena-backed Tape produces) die at
// Reset — optimizer updates, metrics, and representation write-back all
// happen before the trainer resets; anything kept longer must be cloned.
// The arena belongs to exactly one goroutine (the compute stage); sampling
// workers heap-allocate their own batch buffers.
//
// # The adjacency index and sampling
//
// Neighborhood sampling (paper §4.1) runs over a bucket-segmented CSR
// index built incrementally instead of from scratch per visit. Each edge
// bucket (i, j) is counting-sorted once into an immutable CSR fragment
// (graph.BucketFrag, out view over partition i's nodes, in view over
// partition j's) and cached by the storage layer (storage.FragCache,
// LRU-bounded, hit/miss counters). A visit's index is a graph.Segmented
// view composing the resident c² fragment pointers; Segmented.Swap
// derives the next visit's view by reconciling partition sets, fetching
// only the admitted rows' and columns' fragments — a one-partition
// BETA/COMET swap touches O(c) buckets instead of rebuilding O(c²), and
// views are immutable so pipelined in-flight visits keep sampling from
// theirs. The ordering contract makes the index swap invisible to
// training: a node's neighbor list is its per-bucket segments
// concatenated in ascending resident-partition order, exactly the order
// graph.BuildAdjacency produces over the flattened buckets (counting
// sort is stable), so samplers draw identical sequences from either
// index for the same RNG state — enforced by differential tests over
// randomized swap sequences, which keeps trajectories and checkpoints
// byte-identical.
//
// The sampling hot path is allocation-free at steady state: Floyd
// subset sampling uses a caller-owned generation-stamped scratch
// (graph.SampleScratch) instead of a per-call map, and sampler.Sampler
// owns per-hop frontier/neighbor workspaces plus a free list of recycled
// DENSE results (Sampler.Recycle) so batch construction — including the
// trainers' label gather, endpoint/negative dedup (stamp-based, not
// map-based) and prepared-batch structs — performs zero allocations once
// warm (enforced by testing.AllocsPerRun tests). That a swap fetches only
// the admitted partitions' fragments is counted, not timed, by
// TestSegmentedSwapIsIncremental; the benchmark reports its cost as
// graph.swap_us_per_visit.
//
// # The pipeline
//
// internal/pipeline is the epoch executor (paper Fig. 2, steps A-D):
// every epoch, of either task and at every setting, runs as the same
// three bounded produce/consume stages, driven by the one epoch driver in
// internal/train (Trainer.TrainEpoch). The epoch walks only the plan
// visits with training examples (the task decides: a node-classification
// visit that makes a training partition resident for the first time, a
// link-prediction visit with buckets); a visit without examples is not
// staged, admitted or indexed and costs no IO, and since every visit
// still draws its seed in plan order the trajectory is the one the full
// walk would take. EpochStats.Visits counts the plan's visits,
// EpochStats.Walked the ones trained. The loader — one goroutine walking
// those visits, holding at most WithPipeline(depth)+1 visits loaded
// and unreleased — issues async node-partition loads for its lookahead
// window into a small pool of reusable staging buffers
// (storage.DiskNodeStore.Prefetch), collects the visit's training
// examples, refreshes the incremental adjacency view (building at most
// the swapped partitions' fragments ahead of the trainer), and derives
// its batch seeds. The batch-construction stage — WithWorkers(n)
// goroutines, alive for the whole epoch — runs DENSE multi-hop and
// negative sampling on the admitted visit, at most workers+depth batches
// in flight. The compute stage — the trainer's goroutine — admits each
// visit (the partition-buffer swap, consuming staged data and staging the
// next visit's partitions; dirty evictions are written back by a
// background goroutine, double-buffering both sides of the admit/evict
// schedule) and consumes batches through the arena/tape trainer. Depth
// and workers only size those bounds: at depth 0 a visit is loaded only
// after the previous one is released, and with one worker as well each
// batch is built only after the previous one computed, so the stages
// take turns — there is no separate serial loop (the one there was lives
// on as the executor's test oracle, and as golden loss/checkpoint
// digests in marius/golden_test.go). EpochStats.Pipeline reports the
// depth, loaded visits, and stall times; EpochStats.IO counts partition
// prefetch hits and misses. The benchmark reports what the overlap buys
// on its throttled disk workloads as pipeline.overlap_speedup and
// pipeline.stall_share.
//
// # The partition buffer
//
// storage.DiskNodeStore is two parts. The buffer (internal/storage's
// buffer.go) is the partition life-cycle as a transition system: one
// phase per partition, c slots, and guarded transitions — stage,
// stageDone(ok), admit, dirty, beginWriteback, evict, endWriteback(ok),
// drop — each returning the IO its caller must perform. It does no IO,
// starts no goroutines and reads no clock. The store is the shell that
// performs that IO (reads, write-backs, copies between slots and staging
// buffers) under one mutex, with the disk transfers outside it:
//
//	phase     holds                         left by
//	absent    nothing; disk is current      stage (prefetch), admit
//	staging   a disk read into a buffer     stageDone(ok), admit (reserves a slot)
//	loading   a disk read into its slot     stageDone(ok)
//	staged    the read copy in a buffer     admit, drop
//	clean     a slot, same bytes as disk    dirty, evict, drop
//	dirty     a slot, newer than disk       beginWriteback (Flush), evict, drop
//	writing   a write-back of its buffer    endWriteback(ok), admit (copy)
//	retained  a failed write-back's buffer  beginWriteback (retry), admit, drop
//
// A prefetch reads into a staging buffer and a load that finds nothing
// in memory reads straight into its slot. Only an absent partition is
// ever read from disk, so no read can return bytes older than a copy in
// memory; a failed write-back is retained and its error latched until
// Flush lands it. The trainer stages and admits only the partition sets
// of visits with examples, so a visit without any reads nothing, and a
// full-table read (ReadAll, Snapshot) copies resident partitions from
// their slots and reads only the absent ones. The buffer's own
// unsafe() predicate names the states that must never be reached (a
// slot owned twice, a stale copy read or admitted, a dirty partition or a
// retained buffer dropped before its bytes are on disk), and
// TestBufferExhaustive explores every interleaving of transitions, with
// every read and write succeeding or failing, for up to four partitions
// and two slots.
//
// # Datasets on disk
//
// Real (or externally generated) graphs enter through cmd/mariusprep,
// the streaming preprocessing CLI over internal/dataset (paper §4–5:
// raw edge lists are partitioned into on-disk edge buckets before
// out-of-core training). `mariusprep prep` converts raw inputs —
// TSV/CSV or packed-binary edge lists, optional node/feature/label and
// split files — into a self-describing dataset directory:
//
//	manifest.json           versioned metadata + per-bucket edge counts
//	                        and CRC32 checksums + (size, CRC32) for every
//	                        payload file
//	edges.bin               train edges bucket-sorted by (src partition,
//	                        dst partition); 12-byte little-endian
//	                        (src, rel, dst) triples, bucket (i,j) at the
//	                        offset implied by the manifest counts —
//	                        byte-compatible with storage.DiskEdgeStore
//	features.bin            float32 rows in node-ID order (NC) —
//	                        byte-compatible with DiskNodeStore's table
//	labels.bin              int32 class per node (NC)
//	{train,valid,test}_nodes.bin   int32 split lists, order preserved
//	{valid,test}_edges.bin  held-out edge triples, order preserved (LP)
//	dict.tsv                raw source ID of each final node ID
//
// Ingestion is memory-bounded and never materializes the edge list:
// edges stream through an external counting/bucket sort (buffer up to
// the -mem cap, stable-sort each full buffer by bucket, spill it as a
// run, then merge runs run-major so every bucket keeps global input
// order), while the node dictionary and relabeling stay O(nodes). The
// ingest step applies the same seeded partition relabeling marius.New
// applies to an in-memory graph (partition.RandomOrder for LP,
// TrainFirstOrder for NC), so node IDs — and therefore bucket bytes —
// come out exactly as the in-memory path would lay them out.
//
// storage.OpenDataset(dir) opens a prepared directory (validating the
// manifest and every payload file's exact size, so truncation is a
// typed *storage.CorruptError at open instead of an io.ErrUnexpectedEOF
// mid-epoch); marius.FromDataset(dir, opts...) builds a Session on top,
// serving edge buckets straight off the preprocessed file — the
// fragment cache warms from disk on demand, nothing is re-sorted — and
// cmd/mariusgnn -data trains from it. `mariusprep validate` runs the
// full integrity pass (per-bucket and per-file checksums plus semantic
// checks); `mariusprep inspect` summarizes the manifest. Layout changes
// bump storage.DatasetVersion, and readers reject other versions with
// ErrDatasetVersion — there is no in-place migration; re-run prep.
//
// The contract is exactness, not approximation: ingest(export(graph))
// trains byte-identically — same per-epoch losses, same checkpoints —
// to training the original in-memory graph at the same seed, serial and
// pipelined (enforced by the internal/dataset round-trip tests, which also
// require the external sort to spill >= 2 runs while staying under its
// memory cap).
//
// # Quantized storage
//
// `mariusprep prep -quantize=fp16|int8` stores the node-classification
// feature table compressed on disk: fp16 packs each float32 into an IEEE
// 754 half (round-to-nearest-even; 2 bytes/element), int8 stores each
// row affine-quantized to a byte (scale = (max-min)/255, zero = min;
// 1 byte/element) with an 8-byte-per-row (scale, zero) float32 sidecar
// in features.scale.bin. Both cut the dominant out-of-core cost — the
// bytes a partition swap moves — by 2x or 4x, which the §6 cost model
// sees through autotune.Input.NodeElemBytes. Quantized manifests are
// version 2 (plain datasets stay version 1, readable by older builds);
// the payload and sidecar carry CRCs like every other shard, and the
// dataset UUID folds in the encoding, so fp16/int8/float32 preparations
// of the same graph are distinct datasets.
//
// The determinism contract survives compression because rounding happens
// exactly once, at ingest: readers dequantize the same stored bytes on
// every load — storage.DiskNodeStore pages compressed bytes and expands
// them into the float32 partition buffer; Dataset.ReadFeatures expands
// the whole table; serving scores straight off the compressed form with
// fused dequantizing kernels (tensor.GatherDequant and
// tensor.GatherMatMulTBDequant, exact-equality-tested against their
// naive references at every worker count). Training and serving from a
// quantized dataset are therefore bit-reproducible across runs, worker
// counts, and pipeline depths, exactly like float32 — the accuracy cost
// is a one-time storage rounding of the inputs (fp16: ~3 decimal digits;
// int8: 1/255 of each row's range), not run-to-run noise. Link
// prediction's learnable embedding table stays float32 (it is written,
// not just read); serving can separately quantize its precomputed
// encoding table with `mariusserve -quantize-table`.
//
// # Determinism contract
//
// Kernels never reorder floating-point sums: parallel tiling, k-blocking,
// SIMD lanes, fusion, and the arena all preserve each output element's
// exact accumulation order and its separately rounded multiply and add
// (enforced by bit-equality conformance tests against the naive
// references, run on the assembly and on the Go loop, and by a checkpoint
// differential between the two). The pipeline preserves the trajectory on
// top of that: batches compute in exact plan order; each visit and batch
// draws from its own pre-derived seed (so construction can run early, on
// any worker, without touching a shared RNG stream); and base
// representations are gathered at compute time, never at build time (so
// batch k+1 always sees batch k's embedding write-back — no staleness).
// Training is therefore bit-reproducible at every WithWorkers and
// WithPipeline setting — two equally-seeded runs write byte-identical
// checkpoints, a pipelined run's checkpoint is byte-identical to the
// serial run's, and a restored session continues the exact trajectory.
// Concurrency only changes wall-clock overlap.
//
// # Serving
//
// internal/serve is the forward-only counterpart to training: it opens a
// prepared dataset read-only (building the full adjacency index once, at
// startup), loads a checkpoint into an immutable Snapshot (model
// metadata is validated field by field — task, model kind, dimensions,
// node and class counts — with mismatches reported as typed
// marius.ErrCheckpointMismatch naming the offending field), and serves
// node-classification predictions and link-prediction top-k over
// HTTP/JSON through cmd/mariusserve. Requests are micro-batched
// server-side: a single dispatcher collects calls from a bounded queue
// until -max-batch or -max-wait, merges their DENSE samples into one
// deltas structure, and runs one fused forward per batch — LP top-k
// scores all candidates with a single GatherMatMulTB against an
// encoding table precomputed at snapshot load. Because kernels are
// bitwise deterministic (see above) and every request carries its own
// sampling seed (explicit, or derived from request content), a
// micro-batched response is byte-identical to the same request served
// alone — and to the training-side evaluation forward at the same seed
// (enforced by differential tests; the benchmark reports throughput as
// serve_max_ok_rps and serve_p50_ms). Checkpoints hot-reload without a
// restart (SIGHUP or POST /reload): the new snapshot is atomically swapped in
// while in-flight batches finish on the old one, and every batch pins
// exactly one snapshot so responses never mix epochs. Checkpoints also
// record the dataset UUID they were trained on; serving a checkpoint
// against a different prepared directory logs a provenance warning
// (surfaced in /statz). marius.LoadForInference and marius.Serve expose
// the same machinery as a library.
//
// # Multi-relation link prediction
//
// Edge relation types are first-class end to end. Storage carries them
// natively — every edge triple is 12 bytes of (src, rel, dst) — and
// mariusprep ingests a relation column from TSV/CSV or packed-binary
// input through the same memory-capped external sort. A prepared dataset
// with more than one relation type declares manifest version 3
// (storage.DatasetVersionRelations); single-relation and plain datasets
// keep their lower versions, so existing dataset UUIDs are stable and a
// relation-blind older reader rejects a multi-relation directory with a
// typed ErrDatasetVersion instead of silently collapsing its relations.
//
// Scoring generalizes behind the internal/decoder.Decoder interface:
// DistMult, ComplEx and TransE all fold an edge query into one vector
// whose candidate scores come from the same fused GatherMatMulTB kernel
// (TransE's negative squared distance via a norm completion), so every
// decoder inherits the kernels' bitwise determinism — scalar reference
// scorers (decoder.RefScore) reproduce the fused path bit for bit.
// Sessions select one with marius.WithDecoder(marius.DistMult |
// marius.ComplEx | marius.TransE); marius.WithRelations overrides the
// relation-count a generated graph declares. Checkpoints record the
// decoder kind and relation count, and restoring or serving a checkpoint
// with a different decoder is a typed marius.ErrCheckpointMismatch
// naming the field.
//
// Evaluation implements the standard filtered-ranking protocol (the
// paper's §7 MRR reporting): every held-out edge (s, r, d) is ranked
// twice — d against all candidate tails of (s, r, ?), s against all
// candidate heads of (?, r, d) — with known true triples (training plus
// both held-out splits) removed from the candidate set, ties broken by
// ascending entity ID. sess.Evaluate(split, marius.RankingEval(1, 10),
// marius.FilteredEval()) returns a marius.EvalResult carrying MRR and
// Hits@k; the evaluator streams candidate chunks through the fused
// kernel and aggregates per-query ranks in a canonical order, so results
// are bitwise independent of worker count, batch size and chunk width,
// and match a brute-force per-candidate reference exactly (enforced by
// TestRankingMatchesBruteForce; the benchmark reports throughput as
// eval_queries_per_s).
// cmd/mariusgnn prints MRR and Hits@1/10 per eval epoch with -ranking
// (-filtered for the filtered protocol, -decoder to pick the scorer).
//
// Serving scores per (head, relation): POST /v1/topk takes a "relation"
// field plus an optional "filter": true that removes the head's known
// true tails from the response. PR6-era single-relation clients keep
// working — the legacy "rel" field is still accepted (it must agree with
// "relation" when both are present), and omitting both defaults to
// relation 0 only on single-relation datasets. Serving errors map to
// HTTP statuses by type: serve.ErrBadRequest (malformed JSON, unknown
// relation, out-of-range node) is 400, checkpoint mismatches at reload
// are 409, overload shedding is 503 with Retry-After, and per-request
// deadline expiry is 504; /statz reports the serving decoder kind.
//
// # Observability
//
// internal/obs is a stdlib-only observability kernel shared by training
// and serving: a registry of lock-free metrics (atomic counters and
// gauges, fixed-bucket histograms whose Observe is a binary search plus
// one atomic add — no locks, no allocations on the hot path) with
// hand-rolled Prometheus text exposition, and a span tracer that writes
// Chrome Trace Event Format (load the file in chrome://tracing or
// Perfetto). Training wires it through marius.WithMetrics and
// marius.WithTrace (cmd/mariusgnn: -metrics-addr and -trace): the
// pipeline records per-stage spans (partition prefetch, batch build,
// compute, evict write-back) and stall/throughput metrics, and the
// storage layer bridges its atomic IO counters — bytes moved, swaps,
// prefetch hit rate, fragment-cache hits — into registry gauges read
// lazily at scrape time. Serving is instrumented unconditionally: the
// per-request stats behind /statz are the same lock-free histograms,
// GET /metrics serves the Prometheus view, /healthz degrades to 503
// with a JSON reason (failed reload, sustained queue saturation), and
// both CLIs expose net/http/pprof. Instrumentation is observational by
// contract: it reads clocks and bumps atomics but never touches RNG
// streams, batch order, or parameter state, so trajectories and
// checkpoints are byte-identical with it on or off (enforced by a
// differential test) and the benchmark reports its hot-path cost as
// trace.overhead_share.
//
// Timing is `bash bench/run.sh` (bench/README.md); the paper's mechanism
// claims (Tables 6–7, Fig. 6b) are exact count tests in internal/sampler
// and internal/policy.
package repro
