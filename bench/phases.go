package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/bench/load"
	"repro/bench/span"
	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/train"
	"repro/marius"
)

// runConfig is one run of one workload.
type runConfig struct {
	wl   workload
	seed int64
	// seconds is the run's measuring budget. The fixed work (prep, the
	// epochs, eval) is sized for the default budget; the serving steps
	// and kernel probes stretch with it.
	seconds float64
	tiny    bool
	traced  bool
	procs   int
	workDir string
	log     io.Writer
}

// scale stretches a duration sized for the default budget to this run's.
func (c *runConfig) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.seconds / defaultSeconds)
}

func (c *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "  [%s] "+format+"\n", append([]any{c.wl.Name}, args...)...)
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// timing summarises repeated timings of one thing: the median, the
// highest percentile the sample supports (at least ten samples beyond
// it), and the sample count.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// High is the HighQ-quantile; HighQ is 0 when the sample is too small
	// to support any percentile above the median.
	High  float64 `json:"high"`
	HighQ float64 `json:"high_q"`
	Unit  string  `json:"unit"`
}

// digest is how two runs (or two commits) show they did the same work
// for a seed. Loss and Visits must repeat exactly. The byte counts repeat
// exactly without prefetch; at pipeline depth 2 whether a partition is
// still resident when its prefetch is issued depends on timing, so a run
// now and then reads one partition more or fewer: a difference there is
// reported, not failed.
type digest struct {
	// Loss is a hash over the bit pattern of every epoch's mean loss.
	Loss string `json:"loss"`
	// Visits is the partition sets walked per epoch.
	Visits []int `json:"visits_per_epoch"`
	// ReadBytes is the node-store bytes read per epoch; TotalRead and
	// TotalWritten are the store's totals once the last checkpoint has
	// flushed (per-epoch written bytes can straddle an epoch boundary,
	// because evicted partitions are written back asynchronously).
	ReadBytes    []int64 `json:"read_bytes_per_epoch"`
	TotalRead    int64   `json:"total_read_bytes"`
	TotalWritten int64   `json:"total_written_bytes"`
}

func (d digest) String() string {
	return fmt.Sprintf("loss=%s visits=%v read/epoch=%v total_read=%d total_written=%d",
		d.Loss, d.Visits, d.ReadBytes, d.TotalRead, d.TotalWritten)
}

// sameWork reports whether two digests agree on what must repeat exactly
// (losses, visits) and whether they also agree on every byte count.
func sameWork(a, b digest) (exact, bytes bool) {
	exact = a.Loss == b.Loss && reflect.DeepEqual(a.Visits, b.Visits)
	return exact, exact && reflect.DeepEqual(a, b)
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]timing  `json:"timings,omitempty"`
	Checks    []check            `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    digest             `json:"digest"`
	WallS     float64            `json:"wall_s"`

	rec *span.Recorder
}

func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// op counts one attempted operation of a phase (a prep, an epoch, an
// evaluation, a load, a reference-step request) and whether it failed.
func (r *runResult) op(err error) error {
	r.Attempted++
	if err != nil {
		r.Failed++
	}
	return err
}

// run holds the state the phases hand to each other.
type run struct {
	*runConfig
	res  *runResult
	m    map[string]float64 // per-layer values gathered along the way
	rec  *span.Recorder     // nil when untraced
	root span.ID

	files   *dataset.ExportFiles
	dataDir string
	ckpt    string
	opts    []marius.Option
	sess    *marius.Session
	epochs  []train.EpochStats
	epochMB []float64 // heap allocated per epoch
	epochGC []float64 // GC pause per epoch, ms
}

// runWorkload runs the five phases of one workload and returns its
// metrics and checks. A phase that fails outright is an error; a wrong
// output is a failed check.
func runWorkload(c *runConfig) (*runResult, error) {
	start := time.Now()
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.workDir)

	r := &run{runConfig: c, m: map[string]float64{}}
	r.res = &runResult{Workload: c.wl.Name, Seed: c.seed, Traced: c.traced,
		Metrics: map[string]float64{}, Timings: map[string]timing{}}
	if c.traced {
		r.rec = span.New(c.wl.Name)
		r.res.rec = r.rec
		r.root = r.rec.Start(0, "workload")
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"setup", r.setup}, {"prep", r.prep}, {"train", r.train}, {"eval", r.eval},
		{"serve", r.serve},
	}
	if c.traced {
		steps = append(steps, struct {
			name string
			fn   func() error
		}{"layers", r.layers})
	}
	for _, s := range steps {
		t0 := time.Now()
		err := s.fn()
		c.logf("%-6s %.2fs", s.name, time.Since(t0).Seconds())
		if err != nil {
			if r.sess != nil {
				r.sess.Close()
			}
			return nil, fmt.Errorf("%s: %s: %w", c.wl.Name, s.name, err)
		}
	}
	r.rec.End(r.root)
	if c.traced {
		r.res.Metrics = r.m
	}
	r.res.WallS = time.Since(start).Seconds()
	return r.res, nil
}

// spanned runs fn inside a span under the workload root.
func (r *run) spanned(name string, fn func() error) error {
	id := r.rec.Start(r.root, name)
	err := fn()
	r.rec.End(id)
	return err
}

// setup generates and exports the raw dataset in a child process. An
// untraced run sets up three times and reports the median, so that one
// slow spawn does not decide setup_s; a traced run needs it once.
func (r *run) setup() error {
	reps := 3
	if r.traced || r.tiny {
		reps = 1
	}
	id := r.rec.Start(r.root, "setup.child")
	files, walls, err := setUp(r.runConfig, reps)
	r.rec.End(id)
	if err != nil {
		return err
	}
	r.files = files
	r.res.Metrics["setup_s"] = median(walls)
	r.res.Timings["setup_s"] = summarize(walls, "s")
	return nil
}

// prep ingests the raw files into a dataset directory and validates it,
// PrepReps times into fresh directories.
func (r *run) prep() error {
	wl := r.wl
	reps := wl.PrepReps
	if r.traced {
		reps = 1
	}
	var walls, ingests, validates []float64
	var st *dataset.Stats
	for i := 0; i < reps; i++ {
		dir := filepath.Join(r.workDir, "data")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		cfg := r.files.Config(dir, wl.Task, r.seed, wl.Partitions)
		cfg.Quantize = wl.Quantize
		cfg.MemLimit = wl.PrepMemLimit
		cfg.TmpDir = filepath.Join(r.workDir, "spill")
		if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		id := r.rec.Start(r.root, "dataset.Ingest")
		var err error
		st, err = dataset.Ingest(cfg)
		if r.res.op(err) != nil {
			return err
		}
		r.rec.End(id, "edges", st.NumEdges, "spill_runs", st.SpillRuns, "spilled_bytes", st.BytesSpilled)
		t1 := time.Now()
		id = r.rec.Start(r.root, "dataset.Validate")
		_, err = dataset.Validate(dir)
		r.rec.End(id)
		t2 := time.Now()
		if r.res.op(err) != nil {
			r.res.check("dataset-validates", false, "%v", err)
			return err
		}
		walls = append(walls, t2.Sub(t0).Seconds())
		ingests = append(ingests, t1.Sub(t0).Seconds())
		validates = append(validates, t2.Sub(t1).Seconds())
		r.dataDir = dir
	}
	r.res.check("dataset-validates", true, "%d nodes, %d edges, %d spill runs", st.NumNodes, st.NumEdges, st.SpillRuns)
	r.res.Metrics["prep_edges_per_s"] = float64(st.NumEdges) / median(walls)
	r.res.Timings["prep_s"] = summarize(walls, "s")

	r.m["dataset.ingest_s"] = median(ingests)
	r.m["dataset.validate_s"] = median(validates)
	r.m["dataset.spill_runs"] = float64(st.SpillRuns)
	r.m["dataset.spilled_mb"] = mb(st.BytesSpilled)
	size, err := dirSize(r.dataDir)
	if err != nil {
		return err
	}
	r.m["dataset.bytes_per_edge"] = float64(size) / float64(st.NumEdges)
	if wl.PrepMemLimit > 0 && !r.tiny {
		r.res.check("prep-spills", st.SpillRuns >= 2, "%d spill runs under a %d MB cap", st.SpillRuns, wl.PrepMemLimit>>20)
	}
	return nil
}

// sessionOptions is the workload's training configuration.
func (r *run) sessionOptions(storeDir string, depth, workers int) []marius.Option {
	wl := r.wl
	opts := []marius.Option{
		marius.WithModel(marius.GraphSage),
		marius.WithLayers(len(wl.Fanouts)),
		marius.WithFanouts(wl.Fanouts...),
		marius.WithDim(wl.Dim),
		marius.WithBatchSize(wl.BatchSize),
		marius.WithWorkers(workers),
		marius.WithPipeline(depth),
	}
	if wl.Task == marius.TaskLP {
		opts = append(opts, marius.WithNegatives(wl.Negatives), marius.WithDecoder(wl.Decoder))
	}
	if wl.Disk {
		disk := []marius.DiskOption{marius.Capacity(wl.Capacity)}
		if wl.Logical > 0 {
			disk = append(disk, marius.LogicalPartitions(wl.Logical))
		}
		if wl.ThrottleMBps > 0 {
			disk = append(disk, marius.Throttled(storage.NewThrottle(wl.ThrottleMBps*1e6)))
		}
		opts = append(opts, marius.WithDisk(storeDir, disk...))
	}
	return opts
}

// train opens a session over the prepared dataset and runs one warm plus
// Epochs measured epochs (one when traced, to leave time for the
// layer replay), checkpointing after every one.
func (r *run) train() error {
	wl := r.wl
	if r.traced {
		wl.Epochs = 1
	}
	storeDir := filepath.Join(r.workDir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	r.ckpt = filepath.Join(r.workDir, "model.ckpt")
	r.opts = r.sessionOptions(storeDir, wl.Depth, r.procs)
	resetPeakRSS()

	t0 := time.Now()
	id := r.rec.Start(r.root, "marius.FromDataset")
	sess, err := marius.FromDataset(r.dataDir, r.opts...)
	r.rec.End(id)
	if r.res.op(err) != nil {
		return err
	}
	r.sess = sess
	openS := time.Since(t0).Seconds()

	// Epoch e runs from the previous OnEpoch callback to this one: the
	// epoch itself (EpochStats.Duration), then the journal record and
	// the checkpoint.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevAlloc, prevPause := ms.TotalAlloc, ms.PauseTotalNs
	var saves []float64
	runID := r.rec.Start(r.root, "Session.Run")
	last := time.Now()
	res, err := sess.Run(context.Background(),
		marius.Epochs(1+wl.Epochs),
		marius.CheckpointTo(r.ckpt, 1),
		marius.OnEpoch(func(p marius.Progress) error {
			now := time.Now()
			runtime.ReadMemStats(&ms)
			r.epochMB = append(r.epochMB, mb(int64(ms.TotalAlloc-prevAlloc)))
			r.epochGC = append(r.epochGC, float64(ms.PauseTotalNs-prevPause)/1e6)
			prevAlloc, prevPause = ms.TotalAlloc, ms.PauseTotalNs
			saves = append(saves, now.Sub(last).Seconds()-p.Stats.Duration.Seconds())
			r.recordEpoch(runID, last, now, p.Stats)
			r.logf("%s sample=%.2fs compute=%.2fs load-wait=%.2fs batch-wait=%.2fs hits=%d misses=%d",
				p.Stats, p.Stats.Sample.Seconds(), p.Stats.Compute.Seconds(),
				p.Stats.Pipeline.LoadWait.Seconds(), p.Stats.Pipeline.BatchWait.Seconds(),
				p.Stats.IO.PrefetchHits, p.Stats.IO.PrefetchMisses)
			last = time.Now()
			return nil
		}))
	r.rec.End(runID)
	total := time.Since(t0).Seconds()
	r.res.Attempted += 1 + wl.Epochs
	if err != nil {
		r.res.Failed++
		return err
	}
	r.epochs = res.Epochs
	warm, measured := res.Epochs[0], res.Epochs[1:]

	var walls []float64
	for _, e := range measured {
		walls = append(walls, e.Duration.Seconds())
	}
	r.res.Metrics["train_total_s"] = total
	r.res.Metrics["train_examples_per_s"] = float64(measured[0].Examples) / median(walls)
	r.res.Timings["train_epoch_s"] = summarize(walls, "s")

	lastE := measured[len(measured)-1]
	r.res.check("loss-decreases", lastE.Loss < warm.Loss && !math.IsNaN(lastE.Loss),
		"epoch 1 loss %.4f, epoch %d loss %.4f", warm.Loss, lastE.Epoch, lastE.Loss)

	// What must repeat exactly for a seed.
	h := sha256.New()
	for _, e := range res.Epochs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(e.Loss))
		r.res.Digest.ReadBytes = append(r.res.Digest.ReadBytes, e.IO.BytesRead)
		r.res.Digest.Visits = append(r.res.Digest.Visits, e.Visits)
	}
	r.res.Digest.Loss = hex.EncodeToString(h.Sum(nil))[:16]
	src := sess.Task().Source()
	if src.Disk != nil {
		io := src.Disk.Stats().Snapshot()
		r.res.Digest.TotalRead, r.res.Digest.TotalWritten = io.BytesRead, io.BytesWritten
	}
	r.logf("digest %s", r.res.Digest)

	r.trainLayerMetrics(openS, warm, measured, saves[1:])
	return nil
}

// recordEpoch adds the spans of one epoch of Session.Run after the fact:
// the epoch with its returned stats as counts, then the checkpoint.
func (r *run) recordEpoch(parent span.ID, start, end time.Time, st train.EpochStats) {
	if r.rec == nil {
		return
	}
	epochEnd := start.Add(st.Duration)
	r.rec.Record(parent, "train.TrainEpoch", start, epochEnd,
		"epoch", st.Epoch, "batches", st.Batches, "examples", st.Examples, "visits", st.Visits,
		"loss", st.Loss, "sample_busy_s", st.Sample, "compute_busy_s", st.Compute,
		"load_wait_s", st.Pipeline.LoadWait, "batch_wait_s", st.Pipeline.BatchWait,
		"read_bytes", st.IO.BytesRead, "written_bytes", st.IO.BytesWritten,
		"prefetch_hits", st.IO.PrefetchHits, "prefetch_misses", st.IO.PrefetchMisses)
	r.rec.Record(parent, "ckpt.Save", epochEnd, end)
}

// trainLayerMetrics derives the per-layer values the training phase's
// own return values support; medians are over the measured epochs.
func (r *run) trainLayerMetrics(openS float64, warm train.EpochStats, measured []train.EpochStats, saves []float64) {
	med := func(f func(train.EpochStats) float64) float64 {
		var v []float64
		for _, e := range measured {
			v = append(v, f(e))
		}
		return median(v)
	}
	r.m["train.open_s"] = openS
	r.m["train.first_epoch_s"] = warm.Duration.Seconds()
	r.m["train.epoch_s"] = med(func(e train.EpochStats) float64 { return e.Duration.Seconds() })
	sample := med(func(e train.EpochStats) float64 { return e.Sample.Seconds() })
	compute := med(func(e train.EpochStats) float64 { return e.Compute.Seconds() })
	r.m["train.sample_busy_s"] = sample
	r.m["train.compute_busy_s"] = compute
	r.m["train.sample_share"] = sample / (sample + compute)
	r.m["train.batches_per_epoch"] = med(func(e train.EpochStats) float64 { return float64(e.Batches) })
	r.m["train.alloc_mb_per_epoch"] = median(r.epochMB[1:])
	r.m["train.gc_pause_ms_per_epoch"] = median(r.epochGC[1:])
	r.m["train.peak_rss_mb"] = peakRSSMB()

	r.m["sampler.nodes_per_batch"] = med(func(e train.EpochStats) float64 { return float64(e.NodesSampled) / float64(e.Batches) })
	r.m["sampler.edges_per_batch"] = med(func(e train.EpochStats) float64 { return float64(e.EdgesSampled) / float64(e.Batches) })

	r.m["policy.visits_per_epoch"] = med(func(e train.EpochStats) float64 { return float64(e.Visits) })
	read := med(func(e train.EpochStats) float64 { return mb(e.IO.BytesRead) })
	written := med(func(e train.EpochStats) float64 { return mb(e.IO.BytesWritten) })
	r.m["storage.read_mb_per_epoch"] = read
	r.m["storage.written_mb_per_epoch"] = written
	r.m["train.io_mb_per_epoch"] = read + written
	var hits, misses, retries int64
	for _, e := range measured {
		hits += e.IO.PrefetchHits
		misses += e.IO.PrefetchMisses
		retries += e.IO.Retries
	}
	r.m["storage.prefetch_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	r.m["storage.io_retries"] = float64(retries)
	fh, fm := r.sess.Task().Source().FragCache().Stats()
	r.m["storage.frag_hit_ratio"] = ratio(float64(fh), float64(fh+fm))

	loadWait := med(func(e train.EpochStats) float64 { return e.Pipeline.LoadWait.Seconds() })
	batchWait := med(func(e train.EpochStats) float64 { return e.Pipeline.BatchWait.Seconds() })
	r.m["pipeline.load_wait_s"] = loadWait
	r.m["pipeline.batch_wait_s"] = batchWait
	r.m["pipeline.stall_share"] = (loadWait + batchWait) / r.m["train.epoch_s"]

	r.m["ckpt.save_s"] = median(saves)
	if fi, err := os.Stat(r.ckpt); err == nil {
		r.m["ckpt.mb"] = mb(fi.Size())
	}
}

// evalOptions selects the workload's evaluation protocol: accuracy for
// node classification (no options), filtered ranking for link prediction.
func (r *run) evalOptions() []marius.EvalOption {
	if r.wl.Task == marius.TaskLP {
		return []marius.EvalOption{marius.FilteredEval()}
	}
	return nil
}

// eval evaluates the validation split. The first call materialises the
// full graph (and for disk storage reads the table back); the steady
// calls after it are what eval_queries_per_s reports.
func (r *run) eval() error {
	defer func() {
		r.sess.Close()
		r.sess = nil
	}()
	var first float64
	var steady []float64
	var ev marius.EvalResult
	for i := 0; i <= r.wl.EvalCalls; i++ {
		if r.traced && i > 1 {
			break
		}
		runtime.GC()
		t0 := time.Now()
		id := r.rec.Start(r.root, "Session.Evaluate")
		got, err := r.sess.Evaluate(marius.ValidSplit, r.evalOptions()...)
		r.rec.End(id, "value", got.Value)
		if r.res.op(err) != nil {
			return err
		}
		if i == 0 {
			first, ev = time.Since(t0).Seconds(), got
			continue
		}
		steady = append(steady, time.Since(t0).Seconds())
		if got.Value != ev.Value {
			r.res.check("eval-repeats", false, "call %d returned %v, the first %v", i+1, got.Value, ev.Value)
		}
	}
	g := r.sess.Graph()
	queries := len(g.ValidNodes)
	if r.wl.Task == marius.TaskLP {
		queries = 2 * len(g.ValidEdges) // each edge ranks its tail and its head
	}
	r.res.Metrics["eval_queries_per_s"] = float64(queries) / median(steady)
	r.res.Timings["eval_call_s"] = summarize(steady, "s")
	if !r.traced { // the floor is for the full number of epochs; a traced run trains two
		r.res.check("quality-floor", ev.Value >= r.wl.Floor, "%s %s = %.4f, floor %.3f", ev.Task, ev.Metric, ev.Value, r.wl.Floor)
	}
	r.logf("eval   %s", ev)

	r.m["eval.first_call_s"] = first
	r.m["eval.steady_call_s"] = median(steady)
	r.m["eval.rank_us_per_query"] = median(steady) * 1e6 / float64(queries)
	r.m["eval.quality"] = ev.Value
	return nil
}

// summarize reduces repeated timings to a median and the highest
// percentile with at least ten samples beyond it.
func summarize(vals []float64, unit string) timing {
	t := timing{N: len(vals), Median: median(vals), Unit: unit}
	if q := highestQuantile(len(vals)); q > 0.5 {
		t.High, t.HighQ = load.Quantile(vals, q), q
	}
	return t
}

// highestQuantile is the highest of p99.9, p99, p95, p90 and p75 that
// leaves at least ten of n samples beyond it; 0 when none does.
func highestQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0
}

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func dirSize(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// resetPeakRSS clears the kernel's high-water mark so that VmHWM read
// after training covers the training phase, not ingestion. Where the
// kernel refuses, the mark simply covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set; 0 where /proc
// does not provide it.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3
		}
	}
	return 0
}
