// Command mariusserve serves forward-only inference from a training
// checkpoint over a mariusprep-prepared dataset: node-classification
// predictions (POST /v1/predict) or link-prediction top-k tail queries
// (POST /v1/topk), with server-side micro-batching. SIGHUP or POST
// /reload hot-swaps the checkpoint without dropping in-flight requests;
// GET /healthz and /statz expose liveness and queue/batch/latency
// metrics, GET /metrics serves Prometheus text, and /debug/pprof/
// exposes the standard Go profiles. Node features are held in memory as
// the dataset stores them: a quantized table stays compressed and is
// dequantized row by row as requests gather it.
//
// Examples:
//
//	mariusserve -data data/fb -checkpoint run.ckpt
//	curl -s localhost:8080/v1/topk -d '{"src":12,"rel":3,"k":10}'
//	curl -s localhost:8080/metrics | grep serve_latency
//	kill -HUP $(pidof mariusserve)   # re-read run.ckpt after more training
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/marius"
)

func main() {
	var (
		data     = flag.String("data", "", "mariusprep-prepared dataset directory (required)")
		ckpt     = flag.String("checkpoint", "", "checkpoint to serve (required); SIGHUP re-reads it")
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		maxBatch = flag.Int("max-batch", 32, "micro-batch size cap")
		queue    = flag.Int("queue", 0, "request queue capacity (0 = 4*max-batch); requests beyond it are shed with 503 + Retry-After")
		reqTO    = flag.Duration("request-timeout", 0, "per-request deadline covering queue wait plus micro-batch (0 = none); expiry returns 504")
		drain    = flag.Duration("drain", 5*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT before exiting")
		workers  = flag.Int("workers", 4, "kernel fan-out (results identical at any value)")
		qtable   = flag.String("quantize-table", "", "store the LP encoding table quantized (fp16 or int8) to shrink serving memory")
		traceF   = flag.String("trace", "", "write serving-stage spans (queue wait, sample, encode, decode) to this file in Chrome Trace Event Format")
		seed     = flag.Int64("seed", 1, "server seed mixed into request-derived sampling seeds")
	)
	flag.Parse()
	if *data == "" || *ckpt == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := marius.ServeConfig{
		MaxBatch: *maxBatch, QueueCap: *queue,
		Workers: *workers, Seed: *seed, QuantizeTable: *qtable,
		RequestTimeout: *reqTO,
	}
	if *traceF != "" {
		tr, err := marius.NewTracer(*traceF)
		if err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
		cfg.Tracer = tr
	}
	srv, err := marius.LoadForInference(*data, *ckpt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	snap := srv.Snapshot()
	if snap.Warning != "" {
		log.Printf("WARNING: %s", snap.Warning)
	}
	log.Printf("serving %s (epoch %d) over %s on %s", *ckpt, snap.File.Epoch, *data, *addr)

	// SIGHUP re-reads the checkpoint path in place: point a trainer's
	// -checkpoint at the same file and HUP the server after each epoch to
	// serve continuously-improving models.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			snap, err := srv.Reload(*ckpt)
			if err != nil {
				log.Printf("reload failed, keeping old snapshot: %v", err)
				continue
			}
			if snap.Warning != "" {
				log.Printf("WARNING: %s", snap.Warning)
			}
			log.Printf("reloaded %s (epoch %d)", *ckpt, snap.File.Epoch)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The server's own handler covers /v1/*, /reload, /healthz, /statz,
	// and /metrics; pprof rides along on the same listener.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Addr: *addr, Handler: mux}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting connections, let in-flight
		// requests finish (bounded by -drain), then close the inference
		// server (the deferred Close) and exit 0. A second signal during
		// the drain kills the process via Go's default handling, since
		// NotifyContext unregisters after the first.
		log.Printf("signal received; draining for up to %s", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Printf("drain deadline exceeded, closing: %v", err)
			hs.Close()
		}
		log.Printf("drained")
	case err := <-done:
		log.Fatal(err)
	}
}
