package train

import (
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Obs carries the training-side observability hooks: epoch-level
// counters/gauges plus the pipeline's per-stage instrumentation. A nil
// *Obs disables everything. Instrumentation is read-only with respect
// to training state — it never touches RNG streams or batch order, so
// trajectories (and checkpoints) are byte-identical with it on or off.
type Obs struct {
	Reg    *obs.Registry
	Tracer *obs.Tracer

	pipe *pipeline.Instr

	epochs     *obs.Counter
	examples   *obs.Counter
	batches    *obs.Counter
	visits     *obs.Counter
	walked     *obs.Counter
	lastLoss   *obs.Gauge
	lastMetric *obs.Gauge
	epochSec   *obs.Histogram
}

// NewObs registers the train metric family on reg (nil for a
// tracing-only setup) and returns hooks wired to it.
func NewObs(reg *obs.Registry, tracer *obs.Tracer) *Obs {
	return &Obs{
		Reg:    reg,
		Tracer: tracer,
		pipe:   pipeline.NewInstr(reg, tracer),
		epochs: reg.Counter("train_epochs_total", "Training epochs completed."),
		examples: reg.Counter("train_examples_total",
			"Training examples (labeled nodes or positive edges) consumed."),
		batches: reg.Counter("train_batches_total", "Mini-batches computed."),
		visits:  reg.Counter("train_visits_total", "Partition-set visits planned by the policy."),
		walked: reg.Counter("train_visits_walked_total",
			"Planned visits with examples, loaded and trained; the others cost no IO."),
		lastLoss:   reg.Gauge("train_last_loss", "Mean loss of the most recent epoch."),
		lastMetric: reg.Gauge("train_last_metric", "Train metric (accuracy or MRR) of the most recent epoch."),
		epochSec: reg.Histogram("train_epoch_seconds", "Wall-clock epoch duration.",
			obs.ExpBuckets(0.01, 2, 24)),
	}
}

// instr returns the pipeline hooks (nil when o is nil).
func (o *Obs) instr() *pipeline.Instr {
	if o == nil {
		return nil
	}
	return o.pipe
}

// epochDone folds one completed epoch's stats into the registry.
func (o *Obs) epochDone(st *EpochStats) {
	if o == nil {
		return
	}
	o.epochs.Inc()
	o.examples.Add(uint64(st.Examples))
	o.batches.Add(uint64(st.Batches))
	o.visits.Add(uint64(st.Visits))
	o.walked.Add(uint64(st.Walked))
	o.lastLoss.Set(st.Loss)
	o.lastMetric.Set(st.Metric)
	o.epochSec.Observe(st.Duration.Seconds())
}
