// Package marius is the public MariusGNN API: a task-polymorphic Session
// over the storage layer (partitioned node representations, edge buckets,
// partition buffer), the processing layer (DENSE sampling, pipelined
// mini-batch training) and the replacement policies (COMET, BETA,
// NodeCache).
//
// A Session is built from a Task (node classification or link prediction),
// a graph, and functional options; training runs through a context-aware
// run loop with epoch callbacks, early stopping and checkpointing:
//
//	g := gen.SBM(gen.DefaultSBM(100_000, 1))
//	sess, err := marius.New(marius.NodeClassification(), g,
//		marius.WithModel(marius.GraphSage),
//		marius.WithFanouts(15, 10, 5),
//		marius.WithSeed(1),
//	)
//	if err != nil { ... }
//	defer sess.Close()
//
//	res, err := sess.Run(ctx,
//		marius.Epochs(10),
//		marius.EarlyStopping(3, 0.001),
//		marius.OnEpoch(func(p marius.Progress) error {
//			fmt.Println(p.Stats)
//			return nil
//		}),
//	)
//	test, err := sess.Evaluate(marius.TestSplit)
//	fmt.Printf("%s %s = %.4f\n", test.Split, test.Metric, test.Value)
//
// Disk-based out-of-core training, policies and the §6 auto-tuner are
// selected the same way:
//
//	sess, err := marius.New(marius.LinkPrediction(), g,
//		marius.WithDisk(dir, marius.Partitions(16), marius.Capacity(4)),
//		marius.WithPolicy(marius.COMET),
//		marius.WithAutotune(1<<30, 512<<10),
//	)
//
// Out-of-core training can be pipelined with WithPipeline(depth): a
// loader walks the partition-visit plan up to depth visits ahead of
// the trainer, staging node partitions and edge buckets off the critical
// path while worker goroutines construct batches, so the compute stage
// never stalls on the disk. Pipelining is trajectory-preserving: batches
// compute in exact plan order with per-batch derived seeds, so a run
// produces the same losses and checkpoints at every depth, the default
// depth 0 (no visit loaded ahead) included.
//
// Long runs survive restarts through Save/Restore (or the CheckpointTo run
// option): a checkpoint captures the dense parameters with optimizer
// moments, the learnable node representation table with its sparse-AdaGrad
// accumulators, the RNG seed and the epoch counter. A restored session
// evaluates identically to the saved one, and continued training
// reproduces the exact trajectory at every worker count and pipeline
// depth (kernels are bitwise deterministic and batch order is fixed by
// the plan).
//
// # Fault tolerance
//
// The storage layer absorbs transient IO errors (EINTR/EAGAIN-class
// errnos and injected faults) with a bounded-backoff retry loop and
// loops short reads and writes to completion, so POSIX partial IO never
// corrupts a partition or a checkpoint; retries are counted, never
// silent (storage_io_retries_total). Failed asynchronous evict
// write-backs are retained in memory, surface as errors on the training
// path, and are re-issued by Flush once the disk recovers — a full disk
// fails the epoch loudly instead of silently dropping updates.
//
// Crashes are survived through the run journal: a checkpointed Run
// (CheckpointTo) durably records each finished epoch before writing its
// checkpoint, and every artifact lands via atomic rename. After a kill,
// Resume rebuilds the session from the journal, restores the newest
// checkpoint, and retrains only the missing epochs; because training is
// bit-reproducible, the combined run's losses and final checkpoint are
// byte-identical to a run that was never interrupted. A crash that
// predates all durable state reports ErrNoJournal and the caller starts
// fresh.
//
// Every recovery path is driven by the deterministic fault injector in
// internal/fault (WithFaults): seeded transient errors, short IO, torn
// writes, ENOSPC, and kill -9 crash points, exercised end to end by
// TestCrashResumeDifferential and TestTransientWeatherMatchesClean.
package marius

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/train"
)

// Task name constants.
const (
	TaskNC = "nc"
	TaskLP = "lp"
)

// Split identifies an evaluation split.
type Split int

const (
	// ValidSplit is the validation split.
	ValidSplit Split = iota
	// TestSplit is the held-out test split.
	TestSplit
)

// String implements fmt.Stringer.
func (s Split) String() string {
	if s == TestSplit {
		return "test"
	}
	return "valid"
}

// Evaluation protocol names recorded in EvalResult.Protocol.
const (
	// ProtocolSampled is the default link-prediction protocol: MRR against
	// shared sampled negatives (full ranking on small graphs).
	ProtocolSampled = "sampled"
	// ProtocolRanking is the both-sides ranking protocol selected by
	// RankingEval/FilteredEval: every held-out edge ranked against all
	// entities on the tail and head side, reporting MRR and Hits@k.
	ProtocolRanking = "ranking"
)

// EvalResult is a structured evaluation outcome: which task produced it,
// which metric it is, on which split, under which protocol, and its
// value. Value always carries the headline metric (accuracy for node
// classification, MRR for link prediction), so run-loop consumers (early
// stopping, Best tracking) work identically under every protocol; the
// richer link-prediction fields ride alongside.
type EvalResult struct {
	Task   string // "nc" or "lp"
	Metric string // "accuracy" or "MRR"
	Split  Split
	Value  float64

	// Protocol names the evaluation protocol ("sampled" or "ranking";
	// empty for node classification). Filtered reports whether known true
	// triples were removed from the ranking candidate sets.
	Protocol string
	Filtered bool

	// Loss is the mean evaluation loss (sampled link prediction only; 0
	// elsewhere). MRR mirrors Value for link prediction. Hits maps k to
	// Hits@k (nil for node classification).
	Loss float64
	MRR  float64
	Hits map[int]float64
}

func (r EvalResult) String() string {
	s := fmt.Sprintf("%s %s %s=%.4f", r.Task, r.Split, r.Metric, r.Value)
	if r.Protocol != "" {
		p := r.Protocol
		if r.Filtered {
			p = "filtered " + p
		}
		s += fmt.Sprintf(" (%s)", p)
	}
	for _, k := range sortedKs(r.Hits) {
		s += fmt.Sprintf(" hits@%d=%.4f", k, r.Hits[k])
	}
	return s
}

func sortedKs(hits map[int]float64) []int {
	ks := make([]int, 0, len(hits))
	for k := range hits {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Task is one trainable workload over a graph. NodeClassification and
// LinkPrediction return the built-in implementations; a Session drives
// whichever it is given, with no task-specific branching.
type Task interface {
	// Name returns the short task name ("nc", "lp").
	Name() string
	// Prepare validates g against the task's requirements, relabels it for
	// partitioned training, and builds the trainer. Called once by New.
	Prepare(g *graph.Graph, o *Options) error
	// TrainEpoch runs one training epoch, honoring ctx cancellation
	// between visits and mini batches.
	TrainEpoch(ctx context.Context) (train.EpochStats, error)
	// Evaluate computes the task metric on a split under the given
	// evaluation spec (nil means the task default protocol). Tasks reject
	// specs they cannot honor — e.g. ranking on node classification —
	// with an *OptionError.
	Evaluate(split Split, spec *EvalSpec) (EvalResult, error)
	// Epoch returns the number of completed epochs; SetEpoch overrides it
	// when restoring a checkpoint.
	Epoch() int
	SetEpoch(int)
	// Params returns the dense trainable parameters.
	Params() *nn.ParamSet
	// Source returns the storage-layer handles.
	Source() *train.Source
	// LearnableTable reports whether the node representation table is
	// trained (link prediction) and therefore belongs in checkpoints;
	// fixed feature tables (node classification) are reproducible from
	// the graph and are only shape-validated on restore.
	LearnableTable() bool
	// SetPolicy overrides the replacement policy.
	SetPolicy(policy.Policy)
}

// Session is a configured training task over a graph: the unit the run
// loop, evaluation and checkpointing operate on.
type Session struct {
	graph *graph.Graph
	task  Task
	opts  Options
}

// New builds a Session running task over g with the given options applied
// on top of the paper defaults. Options are validated eagerly: the first
// invalid option or invalid combination is returned as an *OptionError
// wrapping one of the Err... sentinels. The graph is relabeled in place
// for partitioned training (deterministically, given the same seed).
func New(task Task, g *graph.Graph, opts ...Option) (*Session, error) {
	if task == nil {
		return nil, optErr("New", ErrBadValue, "nil task")
	}
	if g == nil {
		return nil, optErr("New", ErrBadValue, "nil graph")
	}
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if err := o.resolve(task.Name()); err != nil {
		return nil, err
	}
	if err := task.Prepare(g, &o); err != nil {
		return nil, err
	}
	return &Session{graph: g, task: task, opts: o}, nil
}

// Graph returns the (relabeled) graph the session trains on.
func (s *Session) Graph() *graph.Graph { return s.graph }

// Task returns the session's task.
func (s *Session) Task() Task { return s.task }

// Options returns the resolved configuration.
func (s *Session) Options() Options { return s.opts }

// Params returns the dense trainable parameters.
func (s *Session) Params() *nn.ParamSet { return s.task.Params() }

// TrainEpoch runs one training epoch. Most callers should prefer Run.
func (s *Session) TrainEpoch(ctx context.Context) (train.EpochStats, error) {
	return s.task.TrainEpoch(ctx)
}

// Evaluate computes the task metric on a split. With no options, the
// task default runs: accuracy for node classification, sampled-negative
// MRR for link prediction. RankingEval and FilteredEval switch
// link-prediction sessions to the (optionally filtered) both-sides
// ranking protocol, filling MRR and Hits@k in the result.
func (s *Session) Evaluate(split Split, opts ...EvalOption) (EvalResult, error) {
	var spec *EvalSpec
	if len(opts) > 0 {
		spec = &EvalSpec{}
		for _, opt := range opts {
			if err := opt(spec); err != nil {
				return EvalResult{}, err
			}
		}
	}
	return s.task.Evaluate(split, spec)
}

// SetPolicy overrides the replacement policy, for example to swap COMET
// for BETA on an otherwise identical session.
func (s *Session) SetPolicy(pol policy.Policy) { s.task.SetPolicy(pol) }

// Close releases the session's storage.
func (s *Session) Close() error { return s.task.Source().Close() }
