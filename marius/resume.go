package marius

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
	"repro/internal/train"
)

// ErrNoJournal is returned by Resume when dir holds no run journal:
// either no checkpointed run ever started there, or the process died
// before the journal's first atomic write landed — in which case no
// training state exists either, and the caller simply starts the run
// fresh.
var ErrNoJournal = ckpt.ErrNoJournal

// journalOpts is the serializable subset of Options a run journal
// records, enough for Resume to rebuild the session identically.
// Non-serializable attachments (PolicyImpl, Throttle, Metrics, Tracer,
// WithFaults) are not recorded; Resume's extra options reattach them.
type journalOpts struct {
	Storage StorageMode `json:"storage"`
	Model   ModelKind   `json:"model"`
	Policy  PolicyKind  `json:"policy"`
	Dir     string      `json:"dir,omitempty"`

	Dim     int   `json:"dim"`
	Layers  int   `json:"layers"`
	Fanouts []int `json:"fanouts"`

	BatchSize int `json:"batch_size"`
	Negatives int `json:"negatives"`

	LR    float32 `json:"lr"`
	EmbLR float32 `json:"emb_lr"`

	Partitions        int   `json:"partitions"`
	BufferCapacity    int   `json:"buffer_capacity,omitempty"`
	LogicalPartitions int   `json:"logical_partitions,omitempty"`
	CPUBytes          int64 `json:"cpu_bytes"`
	BlockBytes        int64 `json:"block_bytes"`

	Workers       int   `json:"workers"`
	PipelineDepth int   `json:"pipeline_depth,omitempty"`
	Seed          int64 `json:"seed"`
}

// withRestored replays a journal's recorded options onto a fresh
// Options, so the resumed session is configured identically to the
// crashed one (same storage mode, model shape, batch schedule, seed).
func withRestored(jo journalOpts) Option {
	return func(o *Options) error {
		o.Storage, o.Model, o.Policy, o.Dir = jo.Storage, jo.Model, jo.Policy, jo.Dir
		o.Dim, o.Layers = jo.Dim, jo.Layers
		o.Fanouts = append([]int(nil), jo.Fanouts...)
		o.BatchSize, o.Negatives = jo.BatchSize, jo.Negatives
		o.LR, o.EmbLR = jo.LR, jo.EmbLR
		o.Partitions, o.BufferCapacity, o.LogicalPartitions = jo.Partitions, jo.BufferCapacity, jo.LogicalPartitions
		o.CPUBytes, o.BlockBytes = jo.CPUBytes, jo.BlockBytes
		o.Workers, o.PipelineDepth, o.Seed = jo.Workers, jo.PipelineDepth, jo.Seed
		return nil
	}
}

// withJournal hands Resume's pre-loaded (and truncated) journal to Run,
// which continues appending to it instead of starting a fresh one.
func withJournal(path string, j *ckpt.Journal) RunOption {
	return func(rc *runConfig) error {
		rc.journal, rc.journalPath = j, path
		return nil
	}
}

// newJournal builds the durable run journal for a fresh checkpointed
// dataset run: run identity (task, seed, dataset directory), the epoch
// target and checkpoint location, and the serializable options Resume
// needs to rebuild the session.
func (s *Session) newJournal(rc *runConfig) (*ckpt.Journal, error) {
	o := &s.opts
	jo := journalOpts{
		Storage: o.Storage, Model: o.Model, Policy: o.Policy, Dir: o.Dir,
		Dim: o.Dim, Layers: o.Layers, Fanouts: o.Fanouts,
		BatchSize: o.BatchSize, Negatives: o.Negatives,
		LR: o.LR, EmbLR: o.EmbLR,
		Partitions: o.Partitions, BufferCapacity: o.BufferCapacity, LogicalPartitions: o.LogicalPartitions,
		CPUBytes: o.CPUBytes, BlockBytes: o.BlockBytes,
		Workers: o.Workers, PipelineDepth: o.PipelineDepth, Seed: o.Seed,
	}
	raw, err := json.Marshal(jo)
	if err != nil {
		return nil, fmt.Errorf("marius: run journal: %w", err)
	}
	// A relative dataset path would dangle if the resuming process starts
	// from another working directory.
	dataDir, err := filepath.Abs(o.dataset.Dir)
	if err != nil {
		dataDir = o.dataset.Dir
	}
	return &ckpt.Journal{
		Version:   ckpt.JournalVersion,
		Task:      s.task.Name(),
		Seed:      o.Seed,
		DataDir:   dataDir,
		Epochs:    rc.epochs,
		Ckpt:      filepath.Base(rc.ckptPath),
		CkptEvery: rc.ckptEvery,
		Opts:      raw,
	}, nil
}

// Resume continues a checkpointed dataset run that was killed mid-way:
// it locates the run journal in dir (the CheckpointTo directory), sweeps
// stale atomic-write temp files, rebuilds the session from the journal's
// recorded dataset directory and options, restores the newest checkpoint
// if one landed, and trains the remaining epochs — journaling and
// checkpointing exactly as the original run did.
//
// Because training is bit-reproducible (per-epoch derived RNG, plan-order
// batches, deterministic kernels) and every IO artifact is written
// atomically, the combined run is byte-identical to an uninterrupted one:
// the returned RunResult carries the full loss trajectory (journaled
// epochs re-synthesized into EpochStats with their recorded loss and
// train metric; other per-epoch fields such as timings are zero), and the
// final checkpoint bytes match the never-killed run's.
//
// A directory without a journal returns ErrNoJournal — the crash (if
// any) predates all durable state, so the caller just starts the run
// fresh. A journal recording an option this build does not know is
// refused before anything trains. Non-serializable options
// (WithPolicyImpl, Throttled, metrics, tracing, WithFaults) are not
// journaled; pass them again through extra to reattach them.
//
// The caller owns the returned Session (Close it when done); it is
// returned even when the continued run errors, alongside the progress
// made so far.
func Resume(ctx context.Context, dir string, extra ...Option) (*Session, *RunResult, error) {
	jpath, j, err := ckpt.FindJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	if _, err := ckpt.SweepTemps(dir); err != nil {
		return nil, nil, fmt.Errorf("marius: sweep %s: %w", dir, err)
	}
	if len(j.Opts) == 0 {
		return nil, nil, fmt.Errorf("marius: journal %s records no session options", jpath)
	}
	// An option this build does not know cannot be honoured: dropping it
	// could resume a different trajectory, so the decode refuses it and
	// names the field.
	var jo journalOpts
	dec := json.NewDecoder(bytes.NewReader(j.Opts))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jo); err != nil {
		return nil, nil, fmt.Errorf("marius: journal %s: unusable options: %w", jpath, err)
	}
	sess, err := FromDataset(j.DataDir, append([]Option{withRestored(jo)}, extra...)...)
	if err != nil {
		return nil, nil, err
	}

	ckptPath := filepath.Join(dir, j.Ckpt)
	completed := 0
	switch _, err := os.Stat(ckptPath); {
	case err == nil:
		if err := sess.Restore(ckptPath); err != nil {
			sess.Close()
			return nil, nil, err
		}
		completed = sess.task.Epoch()
	case !os.IsNotExist(err):
		sess.Close()
		return nil, nil, err
	}
	if completed > len(j.Done) {
		// Cannot happen under the write protocol (each epoch journals
		// before it checkpoints); refuse rather than invent loss records.
		sess.Close()
		return nil, nil, fmt.Errorf("marius: checkpoint %s is at epoch %d but journal records only %d; state is inconsistent",
			ckptPath, completed, len(j.Done))
	}
	// The journal may run ahead of the checkpoint (crash between a journal
	// write and its checkpoint): truncate to the restored state — the
	// dropped epochs retrain bit-identically.
	j.Done = j.Done[:completed]

	prefix := make([]train.EpochStats, 0, completed)
	for _, r := range j.Done {
		prefix = append(prefix, train.EpochStats{Epoch: r.Epoch, Loss: r.Loss, Metric: r.Metric})
	}

	if remaining := j.Epochs - completed; remaining > 0 {
		res, err := sess.Run(ctx,
			Epochs(remaining),
			CheckpointTo(ckptPath, max(j.CkptEvery, 1)),
			withJournal(jpath, j))
		if res != nil {
			res.Epochs = append(prefix, res.Epochs...)
		}
		return sess, res, err
	}
	// The run had already finished; nothing to retrain.
	return sess, &RunResult{Epochs: prefix, Stopped: Completed}, nil
}
