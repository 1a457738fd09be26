package pipeline

import (
	"time"

	"repro/internal/obs"
)

// Instr carries the pipeline's observability hooks: per-stage duration
// histograms, stall histograms (the registry view of Stats.LoadWait /
// Stats.BatchWait), throughput counters, a prefetch-queue depth gauge,
// and an optional span tracer. A nil *Instr disables everything; all
// hooks are lock-free, so instrumentation never perturbs stage
// ordering (the determinism contract).
type Instr struct {
	// Tracer, when non-nil, receives one span per stage execution:
	// ("pipeline", "prefetch") on the prefetch row, ("pipeline",
	// "batch_build") on per-worker rows, ("pipeline", "compute") on the
	// compute row.
	Tracer *obs.Tracer

	LoadSec      *obs.Histogram
	BuildSec     *obs.Histogram
	ComputeSec   *obs.Histogram
	LoadWaitSec  *obs.Histogram
	BatchWaitSec *obs.Histogram

	VisitsLoaded *obs.Counter
	Batches      *obs.Counter

	// QueueDepth tracks how many loaded visits sit ready when the compute
	// stage comes to take one — the live "is the loader ahead or behind"
	// signal.
	QueueDepth *obs.Gauge
}

// secBuckets spans 100µs .. ~52s exponentially — wide enough for both
// per-batch kernels and whole-partition IO.
var secBuckets = obs.ExpBuckets(0.0001, 2, 20)

// NewInstr registers the pipeline metric family on r (which may be nil
// for tracing-only instrumentation) and returns hooks wired to it.
func NewInstr(r *obs.Registry, tracer *obs.Tracer) *Instr {
	return &Instr{
		Tracer:       tracer,
		LoadSec:      r.Histogram("pipeline_load_seconds", "Prefetch (visit load) stage duration.", secBuckets),
		BuildSec:     r.Histogram("pipeline_build_seconds", "Batch construction stage duration.", secBuckets),
		ComputeSec:   r.Histogram("pipeline_compute_seconds", "Compute stage duration per batch.", secBuckets),
		LoadWaitSec:  r.Histogram("pipeline_load_wait_seconds", "Compute-stage stalls waiting for a loaded visit.", secBuckets),
		BatchWaitSec: r.Histogram("pipeline_batch_wait_seconds", "Compute-stage stalls waiting for a built batch.", secBuckets),
		VisitsLoaded: r.Counter("pipeline_visits_loaded_total", "Visits completed by the prefetcher."),
		Batches:      r.Counter("pipeline_batches_total", "Batches consumed by the compute stage."),
		QueueDepth:   r.Gauge("pipeline_queue_depth", "Loaded visits queued ahead of the compute stage."),
	}
}

// instrumentEpoch wraps an epoch's stage callbacks with timing,
// counters, and spans.
func instrumentEpoch[V, B any](in *Instr, ep Epoch[V, B]) Epoch[V, B] {
	if in == nil {
		return ep
	}
	load, build, compute := ep.Load, ep.Build, ep.Compute
	ep.Load = func(vi int) (V, error) {
		t0 := time.Now()
		v, err := load(vi)
		d := time.Since(t0)
		in.LoadSec.Observe(d.Seconds())
		in.Tracer.Span("pipeline", "prefetch", obs.TIDPrefetch, t0, d)
		if err == nil {
			in.VisitsLoaded.Inc()
		}
		return v, err
	}
	ep.Build = func(w int, v V, bi int) (B, error) {
		t0 := time.Now()
		b, err := build(w, v, bi)
		d := time.Since(t0)
		in.BuildSec.Observe(d.Seconds())
		in.Tracer.Span("pipeline", "batch_build", obs.TIDBuilderBase+w, t0, d)
		return b, err
	}
	ep.Compute = func(v V, bi int, b B) error {
		t0 := time.Now()
		err := compute(v, bi, b)
		d := time.Since(t0)
		in.ComputeSec.Observe(d.Seconds())
		in.Batches.Inc()
		in.Tracer.Span("pipeline", "compute", obs.TIDCompute, t0, d)
		return err
	}
	return ep
}

func (in *Instr) loadWait(d time.Duration) {
	if in != nil {
		in.LoadWaitSec.Observe(d.Seconds())
	}
}

func (in *Instr) batchWait(d time.Duration) {
	if in != nil {
		in.BatchWaitSec.Observe(d.Seconds())
	}
}

func (in *Instr) queueDepth(n int) {
	if in != nil {
		in.QueueDepth.Set(float64(n))
	}
}
