// Package ckpt defines the on-disk checkpoint format shared by training
// (marius.Session.Save/Restore) and forward-only serving (internal/serve).
// A checkpoint captures everything needed to resume training — dense
// parameters with optimizer moments, the learnable node representation
// table with its sparse-AdaGrad accumulators, the RNG seed and the epoch
// counter — plus the model-shape metadata and dataset provenance that let
// an inference loader rebuild the model without a training session and
// reject a mismatched dataset by name instead of panicking mid-forward.
//
// The format is gob with name-matched fields: version-1 checkpoints
// written before ModelMeta/DatasetUUID existed still decode (the new
// fields read back zero), and new checkpoints decode under old readers
// (unknown fields are skipped).
package ckpt

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/decoder"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/nn"
)

// Version guards the on-disk format.
const Version = 1

// ErrMismatch is wrapped by load-time validation errors: the checkpoint
// does not fit the session or dataset it is being loaded against. The
// message names the offending field (task, dim, layers, nodes, ...).
var ErrMismatch = errors.New("checkpoint/dataset mismatch")

// ErrCorrupt is wrapped by Read when the file does not decode as a
// checkpoint at all.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Mismatch returns a validation error wrapping ErrMismatch that names the
// offending checkpoint field.
func Mismatch(field, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrMismatch, field, fmt.Sprintf(format, args...))
}

// Model kind names recorded in ModelMeta.Kind: the gnn encoder kinds, and
// the decoder's name for decoder-only models.
const (
	KindSage     = gnn.KindSage
	KindGAT      = gnn.KindGAT
	KindGCN      = gnn.KindGCN
	KindDistMult = decoder.KindDistMult
)

// ModelMeta records the model shape a checkpoint's parameters were
// trained with, so a forward-only loader can rebuild the encoder/decoder
// and validate the target dataset before touching any kernel.
type ModelMeta struct {
	// Kind is one of the Kind... constants ("sage", "gat", "gcn",
	// "distmult"). Empty in checkpoints written before metadata existed.
	Kind string
	// Dim is the hidden (and, for link prediction, embedding) width.
	Dim int
	// Layers is the encoder depth (0 for decoder-only models).
	Layers int
	// Fanouts are the per-layer sampling fanouts, innermost first.
	Fanouts []int
	// Decoder is the link-prediction decoder kind ("distmult", "complex",
	// "transe"). Empty in checkpoints written before multiple decoders
	// existed, which loaders treat as "distmult" (the only kind then).
	Decoder string
	// NumRels is the relation count the decoder was built with (link
	// prediction; at least 1).
	NumRels int
	// NumClasses is the classifier output width (node classification).
	NumClasses int
	// FeatureDim is the base representation width: the feature dimension
	// for node classification, Dim for link prediction.
	FeatureDim int
}

// File is the serialized session state.
type File struct {
	Version int
	Task    string
	Epoch   int
	Seed    int64

	Params []nn.ParamState

	// TableRows/TableCols always record the store shape for validation;
	// Table/OptState carry the data only for learnable representations
	// (fixed feature tables are reproducible from the graph).
	TableRows, TableCols int
	Table                []float32
	OptState             []float32

	// Model describes how to rebuild the network from Params alone.
	Model ModelMeta
	// DatasetUUID is the manifest UUID of the dataset the session trained
	// on (empty for in-memory graphs or pre-UUID datasets); serving warns
	// when it differs from the dataset being served.
	DatasetUUID string
}

// Write saves f to path atomically and durably (write-to-temp, fsync,
// rename, fsync the directory): a crash at any point leaves either the
// previous checkpoint or the complete new one, never a truncated file.
func Write(path string, f *File) error {
	return WriteFS(nil, path, f)
}

// WriteFS is Write writing through fsys (nil means the real
// filesystem), so crash-injection tests can kill a run mid-checkpoint.
func WriteFS(fsys fault.FS, path string, f *File) error {
	return atomicWrite(fsys, path, ".ckpt-*", func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(f); err != nil {
			return fmt.Errorf("ckpt: encode checkpoint: %w", err)
		}
		return nil
	})
}

// atomicWrite streams fn's output into a temp file in path's directory,
// fsyncs it, makes it world-readable (CreateTemp's 0600 would hide the
// checkpoint from e.g. a serving process running as another user — every
// other artifact the tools write is 0644 under the umask), renames it
// over path, and fsyncs the directory so the rename itself survives a
// crash. On any error the temp file is removed and path is untouched.
func atomicWrite(fsys fault.FS, path, pattern string, fn func(io.Writer) error) error {
	fs := fault.Or(fsys)
	tmp, err := fs.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer fs.Remove(tmp.Name())
	if err := fn(retryWriter{tmp}); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// retryWriter adapts a fault-injectable file to the strict io.Writer
// contract: short writes (n < len(p) with nil error — POSIX-permitted
// partial IO) are continued, and transient errors are retried with the
// same bounded exponential backoff as the storage layer, so a gob or
// JSON encoder streaming through it never sees a retryable blip.
type retryWriter struct{ f fault.File }

func (w retryWriter) Write(p []byte) (int, error) {
	total, attempt := 0, 0
	for len(p) > 0 {
		n, err := w.f.Write(p)
		total += n
		p = p[n:]
		if len(p) == 0 {
			return total, nil
		}
		if err == nil {
			if n == 0 {
				return total, io.ErrNoProgress
			}
			attempt = 0
			continue
		}
		if n > 0 {
			attempt = 0
		}
		if !fault.IsTransient(err) || attempt >= 4 {
			return total, err
		}
		time.Sleep(500 * time.Microsecond << attempt)
		attempt++
	}
	return total, nil
}

// Read loads a checkpoint from path. Bytes that do not decode are
// refused with ErrCorrupt, and a file whose table or accumulators disagree
// with its recorded shape (or whose shape is negative) with ErrMismatch
// naming "table", so every loader may take Table as a TableRows x
// TableCols tensor and OptState as one value per row. Callers check
// Version and their own shape constraints.
func Read(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cp File
	if err := gob.NewDecoder(f).Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	rows, cols, n := cp.TableRows, cp.TableCols, len(cp.Table)
	switch {
	case rows < 0 || cols < 0:
		return nil, Mismatch("table", "negative shape %dx%d", rows, cols)
	case n != 0 && (cols == 0 || n%cols != 0 || n/cols != rows):
		return nil, Mismatch("table", "%d values for a %dx%d table", n, rows, cols)
	case len(cp.OptState) != 0 && len(cp.OptState) != rows:
		return nil, Mismatch("table", "%d accumulators for %d rows", len(cp.OptState), rows)
	}
	return &cp, nil
}
