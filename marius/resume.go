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

// withRestored decodes a run journal's recorded options over a fresh
// Options, so the resumed session is configured identically to the
// crashed one (same storage mode, model shape, decoder, batch schedule,
// seed). An option this build does not know cannot be honoured: dropping
// it could resume a different trajectory, so the decode refuses it and
// names the field.
func withRestored(jpath string, raw json.RawMessage) Option {
	return func(o *Options) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(o); err != nil {
			return fmt.Errorf("marius: journal %s: unusable options: %w", jpath, err)
		}
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
// target and checkpoint location, and the journaled Options fields Resume
// needs to rebuild the session.
func (s *Session) newJournal(rc *runConfig) (*ckpt.Journal, error) {
	o := &s.opts
	raw, err := json.Marshal(o)
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
// fresh. Every Options field not tagged `json:"-"` is journaled, the
// decoder and relation count included; a journal recording an option
// this build does not know is refused before anything trains. The
// attachments tagged `json:"-"` (WithPolicyImpl, Throttled, metrics,
// tracing, WithFaults) are not; pass them again through extra to
// reattach them.
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
	sess, err := FromDataset(j.DataDir, append([]Option{withRestored(jpath, j.Opts)}, extra...)...)
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
