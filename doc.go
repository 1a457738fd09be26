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
// Memory or disk, graph or prepared dataset, every session chooses its
// stores in one place (the marius options' source assembly) and hands
// them to train.NewSource: one edge store — the dataset's bucket file, or
// the graph's edges bucketed in memory (storage.MemoryEdgeStore) or
// sorted into a file under the WithDisk directory — and one node store —
// the dataset's features, held in memory as stored or paged, or a
// float32 table (the graph's features, or the seeded link-prediction
// embeddings) held in memory or written under the WithDisk directory.
// The table is learnable, with one sparse-AdaGrad accumulator per row,
// exactly when the task trains it; a fixed table keeps none and refuses
// writes. Evaluation reads the whole table through one view
// (train.Source.Table): the memory store itself, or a read-only copy read
// back through the disk store.
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
// never fuse. One more primitive is the row dequantizer under every read
// of a quantized table: fp16 widens eight halves per F16C VCVTPH2PS, used
// where CPUID.1:ECX bit 29 reports F16C beside AVX2, and int8 widens eight
// bytes, converts them, then multiplies by the row's scale and adds its zero
// under the same no-FMA rule. Both are exact against the element functions,
// which still do rows' last few elements and every element off amd64.
//
// The conformance tests hold every kernel to a retained naive reference,
// bit for bit; the benchmark's tensor.matmul_gflops_w1/wN and
// tensor.matmul_scaling report their speed parent against change, and
// BenchmarkAxpyNTrainShapes, BenchmarkGatherMatMulTBDequant and
// BenchmarkGatherDequant time axpyN, the fused dequantizing kernel and the
// dequantizing gather against the loops they replaced.
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
// workers heap-allocate their own batch buffers. Arena.Alloc zeroes what it
// hands out, as a fresh tensor is: accumulating kernels (the matmuls, the
// segment sums) and every gradient buffer fold onto that zero.
// Arena.AllocRaw does not, and is for outputs the kernel overwrites in full
// before reading any element — copies, gathers, softmaxes, the a@bᵀ
// products and their scratch — so the memory is not cleared only to be
// written again. A raw tensor carries the same ownership as any other, and
// its contents are undefined until written: it must not reach code that
// assumes zeros. A test hook fills raw allocations with NaN, and training
// under it must match training without it bit for bit.
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
// theirs. Swap looks its missing fragments up in one FragCache.Frags
// call: the cached ones are hits, and the rest are read as one
// edge-store request (one throttle charge per visit) and built. The
// ordering contract makes the index swap invisible to training: a node's
// neighbor list is its per-bucket segments concatenated in ascending
// resident-partition order, exactly the order graph.BuildAdjacency
// produces over the flattened buckets (counting sort is stable), so
// samplers draw identical sequences from either index for the same RNG
// state — enforced by differential tests over randomized swap sequences,
// which keeps trajectories and checkpoints byte-identical.
//
// A fragment also keeps its bucket's file order: beside the 16 bytes per
// edge of its two CSR views it stores each out-CSR entry's index in the
// bucket (4 more), and Segmented.AppendEdges gives a resident bucket's
// edges back exactly as the edge store holds them. Link prediction takes
// its training edges from the visit's view that way, so both tasks read
// edges through the one Swap, and an edge byte is read at most once per
// visit (again only when the cache has dropped its fragment).
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
// EpochStats.Walked the ones trained. Before the stages start, the
// trainer hands the walked visits' partition sets to the disk store
// (storage.DiskNodeStore.Plan), which compiles the epoch's node IO from
// them and starts it on its own IO goroutine. The loader — one goroutine
// walking those visits, holding at most WithPipeline(depth)+1 visits
// loaded and unreleased — collects the visit's training examples,
// refreshes the incremental adjacency view (building at most the swapped
// partitions' fragments ahead of the trainer), and derives its batch
// seeds. The batch-construction stage — WithWorkers(n) goroutines, alive
// for the whole epoch — runs DENSE multi-hop and negative sampling on the
// admitted visit, at most workers+depth batches in flight. The compute
// stage — the trainer's goroutine — admits each visit (LoadSet, which
// releases the previous visit's partitions and waits only for the reads
// this visit needs) and consumes batches through the arena/tape trainer.
// Depth and workers only size those bounds: at depth 0 a visit is loaded
// only after the previous one is released, and with one worker as well
// each batch is built only after the previous one computed, so the stages
// take turns — there is no separate serial loop (the one there was lives
// on as the executor's test oracle, and as golden loss/checkpoint
// digests in marius/golden_test.go). EpochStats.Pipeline reports the
// depth, loaded visits, and stall times; EpochStats.IO counts the
// partitions each admission found already in memory (prefetch hits) or
// waited for (misses). The benchmark reports what the overlap buys on its
// throttled disk workloads as pipeline.overlap_speedup and
// pipeline.stall_share.
//
// # The partition buffer
//
// storage.DiskNodeStore holds min(2c+1, p) frames of partition memory
// for a buffer capacity c: the up to c partitions of the admitted visit
// are resident (pinned), up to 2c are held so one a later visit uses
// again is not read twice, and the frame left over is the landing frame a
// swap's read fills while the previous visit still computes on its
// victim. It is three parts. The buffer (internal/storage's buffer.go) is
// the partition life-cycle as a transition system: one phase per
// partition, the frames, and guarded transitions — fetch, readDone(ok),
// pin, dirty, beginWriteback, endWriteback(ok), evict, drop — each
// returning the IO its caller must perform:
//
//	phase    holds                           left by
//	absent   nothing; disk is current        fetch
//	reading  a disk read into its frame      readDone
//	clean    a frame, same bytes as disk     dirty, evict, drop
//	dirty    a frame, newer than disk        beginWriteback, drop
//	writing  a write-back of its frame       endWriteback
//
// The schedule (schedule.go) compiles a plan's sets, with the partitions
// held when it starts, into ordered ops by Belady's rule over at most 2c
// held partitions: a missing partition takes a spare place, else the
// place of the held partition used again furthest ahead, and a dirty one
// is written back only when it is evicted. Both do no IO, start no
// goroutines and read no clock, so the bytes an epoch reads and writes
// are a function of (plan, c) and only their timing varies. The store is
// the shell that runs each op in two halves on one IO goroutine, under
// one mutex with the transfers outside it: the read, in op order, as soon
// as a frame is free and its partition absent; and the eviction of its
// victim (write-back first if dirty), in op order, once the last visit
// reading the victim is released, which frees a frame for the next read.
// A swap's IO so overlaps the previous visit's compute (write-behind):
// LoadSet waits only for the reads due before its visit, never for a
// write-back, and a LoadSet outside a plan is a plan of one visit. The
// nil Plan that ends an epoch waits for the evictions its reads owe, so
// an epoch's IO is its own. Only an absent partition is ever read from
// disk, so no read can return bytes older than a frame's; a failed
// write-back leaves the partition dirty in its frame and its error
// latched, surfaced by the next LoadSet, until Flush lands it. A full-table read (ReadAll, Snapshot) copies held
// partitions from their frames and reads only the absent ones. The
// buffer's own unsafe() predicate names the states that must never be
// reached (a frame owned twice, a stale copy read, a dirty partition's
// frame reused before its bytes are on disk, a partition admitted before
// its read landed); TestBufferExhaustive explores every interleaving of
// transitions, with every read and write succeeding or failing, for up to
// four partitions and frames; TestBufferScheduleExhaustive runs every
// compiled schedule of small plans, with no, one or two landing frames,
// under every order of its reads, evictions, write-backs and LoadSet
// moves; and TestScheduleBelady holds the schedule's reads to a
// brute-force optimum.
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
// applies to its copy of an in-memory graph (partition.RandomOrder for
// LP, TrainFirstOrder for NC), so node IDs — and therefore bucket bytes —
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
// trains byte-identically — same per-epoch losses, same checkpoints, same
// evaluation — to training the original in-memory graph at the same
// seed, serial and pipelined. It holds because the two sessions take the
// one store assembly above and differ only in where the stores' bytes
// come from. internal/dataset's TestRoundTrip enforces it in each of
// {NC, LP} × {memory, disk}, and requires the external sort to spill
// >= 2 runs while staying under its memory cap.
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
// them into the float32 partition buffer; everything that holds the
// whole table in memory (in-memory training, evaluation and serving)
// reads one storage.MemoryNodeStore, which keeps the table compressed at
// half (fp16) or a quarter (int8) of its float32 bytes and gathers a
// sample's base rows through tensor.GatherDequantInto; and /v1/topk
// scores an int8 encoding table with tensor.GatherMatMulTBDequant, both
// exact-equality-tested against their scalar references at every worker
// count. All of them widen a row
// through the same SIMD dequantizer. A stored fp16 NaN widens quiet
// (float32 bit 22 set), as the F16C instruction widens it; ingest writes
// only the quiet 0x7e00, so the rule changes no stored value. Training
// and serving from a quantized dataset are therefore bit-reproducible
// across runs, worker counts, and pipeline depths, exactly like float32 —
// the accuracy cost
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
// startup, and for node classification reading the feature table into
// memory as stored), loads a checkpoint into an immutable Snapshot (model
// metadata is validated field by field — task, model kind, dimensions,
// node and class counts — with mismatches reported as typed
// marius.ErrCheckpointMismatch naming the offending field), and serves
// node-classification predictions and link-prediction top-k over
// HTTP/JSON through cmd/mariusserve. Requests are micro-batched
// server-side: a single dispatcher takes whatever calls are queued, up
// to -max-batch, without waiting for more (calls arriving meanwhile form
// the next batch), merges their DENSE samples into one deltas
// structure, and runs one fused forward per batch — LP top-k
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
// (surfaced in /statz) and still serves, while Session.Restore (and so
// Resume) refuses it with marius.ErrCheckpointMismatch naming the
// dataset. marius.LoadForInference and marius.Serve expose
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
// Every decoder trains through the same loss, tensor.Tape.PosNegCE: one
// pass over each row of scores computes the softmax cross-entropy of the
// positive against its negatives and counts the positive's rank for the
// batch MRR, equal bit for bit to the softmax cross-entropy of the
// concatenated row it replaced.
// Sessions select one with marius.WithDecoder(marius.DistMult |
// marius.ComplEx | marius.TransE); the relation table has one row per
// relation type of the data (at least one). Checkpoints record the
// decoder kind and relation count, and restoring or serving a checkpoint
// with a different decoder is a typed marius.ErrCheckpointMismatch
// naming the field.
//
// Evaluation ranks through one scorer, internal/eval.Ranking, with one
// rank rule (the paper's §7 MRR reporting): every held-out edge (s, r, d)
// is ranked twice — d among the candidate tails of (s, r, ?), s among the
// candidate heads of (?, r, d) — and each query's rank is the realistic
// rank 1 + greater + equal/2 over its candidates (Ali et al.,
// arXiv:2006.13365), so a tie neither helps nor hurts the target by its
// ID; MRR and Hits@k both read it. The default protocol ranks raw against
// every entity on graphs of at most 20 000 entities, and otherwise
// against one sorted sample of 1 000 distinct candidates drawn once per
// call from the session seed + 3. sess.Evaluate(split,
// marius.RankingEval(1, 10), marius.FilteredEval()) ranks against every
// entity with known true triples removed. The two known sets differ:
// filtered evaluation removes train ∪ valid ∪ test triples, while
// serving's filtered top-k removes training edges only (an eval.Filter
// over the serving adjacency with no extra splits). The evaluator streams
// candidate chunks through the fused kernel, GNN models rank the
// encode.FullTable output computed once per call, and per-query ranks
// aggregate in a canonical order, so results are bitwise independent of
// worker count, batch size and chunk width, and match a brute-force
// per-candidate reference exactly (TestRankingMatchesBruteForce,
// TestRankingPlantedTies; the benchmark reports throughput as
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
