package marius

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// ServeConfig tunes the inference server; the zero value is usable
// (micro-batches of up to 32 requests). Batching never delays a request:
// the server serves whatever is queued as soon as it is free.
type ServeConfig struct {
	// MaxBatch caps the micro-batch size; requests queued while a batch
	// runs aggregate into the next forward pass, up to this many.
	MaxBatch int
	// QueueCap bounds the request queue; a request arriving at a full
	// queue is shed with HTTP 503 + Retry-After instead of queueing
	// without bound.
	QueueCap int
	// Workers is the kernel fan-out. Results are bitwise identical at
	// every worker count.
	Workers int
	// Seed mixes into request-derived sampling seeds.
	Seed int64
	// InMemory is ignored: node-classification features are always
	// served from one in-memory table, quantized datasets kept
	// compressed. The field remains because the benchmark module sets it
	// and converts ServeConfig into the serving package's Config field
	// for field.
	InMemory bool
	// QuantizeTable ("fp16" or "int8") stores the precomputed
	// link-prediction encoding table quantized, trading exact float32
	// scores for a half- or quarter-size resident table. Results remain
	// bit-identical across worker counts and batchings.
	QuantizeTable string
	// Tracer, when non-nil, records serving-stage spans (queue wait,
	// sample, encode, decode) in Chrome Trace Event Format; see
	// NewTracer. Purely observational.
	Tracer *Tracer
	// RequestTimeout, when positive, bounds each request's total time in
	// the server (queue wait plus its micro-batch); expiry returns
	// context.DeadlineExceeded (HTTP 504). Zero imposes no deadline.
	RequestTimeout time.Duration
	// Hooks optionally attaches chaos-testing instrumentation (see
	// ServeHooks); nil costs nothing.
	Hooks *ServeHooks
}

// ServeHooks are chaos-testing instrumentation points for the inference
// server (e.g. a BeforeBatch hook that panics to exercise the server's
// fault containment).
type ServeHooks = serve.Hooks

// InferenceServer serves forward-only predictions from a checkpoint over
// a prepared dataset: Predict (node classification), TopK (link
// prediction tails), Reload (hot checkpoint swap), Statz, Handler (the
// HTTP surface) and Close.
type InferenceServer = serve.Server

// InferenceSnapshot is one loaded checkpoint inside an InferenceServer.
type InferenceSnapshot = serve.Snapshot

// PredictRequest asks an InferenceServer for node classifications.
type PredictRequest = serve.PredictRequest

// PredictResponse carries per-node argmax classes and logits.
type PredictResponse = serve.PredictResponse

// TopKRequest asks an InferenceServer for the best tails of (src, rel, ?).
type TopKRequest = serve.TopKRequest

// TopKResponse lists tail entities in descending score order.
type TopKResponse = serve.TopKResponse

// ErrServerClosed is returned by inference calls after the server closed.
var ErrServerClosed = serve.ErrClosed

// ErrBadRequest marks invalid inference requests (wrong task,
// out-of-range node or relation IDs, empty batches).
var ErrBadRequest = serve.ErrBadRequest

// LoadForInference opens the prepared dataset at dataDir read-only,
// loads the checkpoint, validates the two against each other — a
// mismatch (wrong dimension, layer count, node count, task, ...) returns
// an error matching ErrCheckpointMismatch that names the offending field
// — and starts a forward-only inference server. Close it when done.
func LoadForInference(dataDir, checkpoint string, cfg ServeConfig) (*InferenceServer, error) {
	sctx, err := serve.Open(dataDir, serve.Config(cfg))
	if err != nil {
		return nil, err
	}
	snap, err := serve.Load(sctx, checkpoint, serve.Config(cfg))
	if err != nil {
		sctx.Close()
		return nil, err
	}
	return serve.New(sctx, snap, serve.Config(cfg)), nil
}

// Serve runs an inference server over HTTP on addr until ctx is done:
// POST /v1/predict and /v1/topk for inference, POST /reload for hot
// checkpoint swaps, GET /healthz and /statz for monitoring. See
// cmd/mariusserve for the CLI wrapper (flags, SIGHUP-triggered reload,
// graceful shutdown).
func Serve(ctx context.Context, addr, dataDir, checkpoint string, cfg ServeConfig) error {
	srv, err := LoadForInference(dataDir, checkpoint, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	hs := &http.Server{
		Addr:        addr,
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutCtx)
		return ctx.Err()
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
