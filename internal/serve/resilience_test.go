// Resilience tests: load shedding at a full queue (503 + Retry-After),
// per-request deadlines (504), panic containment in the dispatcher
// (500, process alive), and the /healthz degradation each of them
// feeds. The chaos entry point is Hooks.BeforeBatch — a hook that
// blocks stalls the dispatcher so the queue saturates on demand; a
// hook that panics exercises fault containment.
package serve_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// gatedServer starts a server whose dispatcher blocks inside
// Hooks.BeforeBatch until unstall is called; stalled receives once the
// first batch is held there. Later batches pass the opened gate freely.
func gatedServer(t *testing.T, dir, ckptPath string, cfg serve.Config) (srv *serve.Server, unstall func(), stalled <-chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1) // holds the first batch's arrival
	cfg.Hooks = &serve.Hooks{BeforeBatch: func(int) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}}
	srv = startServer(t, dir, ckptPath, cfg)
	var once sync.Once
	unstall = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(unstall)
	return srv, unstall, entered
}

// stallServer is gatedServer with MaxBatch 1 and QueueCap 1, which make
// the saturation arithmetic exact: one request stuck in its batch, one
// queued, everything else shed.
func stallServer(t *testing.T, dir, ckptPath string, cfg serve.Config) (srv *serve.Server, unstall func(), stalled <-chan struct{}) {
	t.Helper()
	cfg.MaxBatch = 1
	cfg.QueueCap = 1
	return gatedServer(t, dir, ckptPath, cfg)
}

// coBatch runs plug alone in the gated server's first batch, holds that
// batch until every call in rest is queued behind it, then releases the
// gate and waits for all of them, stopping the test if any failed. A
// work-conserving dispatcher then serves rest in batches of up to
// MaxBatch.
func coBatch(t *testing.T, srv *serve.Server, unstall func(), stalled <-chan struct{}, plug func(), rest ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	run(plug)
	<-stalled
	for _, f := range rest {
		run(f)
	}
	waitQueueDepth(t, srv, len(rest))
	unstall()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// requireCoBatched fails unless the server dispatched at least one
// micro-batch of more than one request. The dispatcher records a batch
// only after answering it, so this sees every batch but the last.
func requireCoBatched(t *testing.T, srv *serve.Server) {
	t.Helper()
	hist := srv.Statz().BatchSizeHist
	for bucket := range hist {
		if bucket != "<=1" {
			return
		}
	}
	t.Fatalf("no micro-batch held more than one request: batch sizes %v", hist)
}

// waitQueueDepth polls until the server's queue holds want requests.
func waitQueueDepth(t *testing.T, srv *serve.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statz().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", want, srv.Statz().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedAtFullQueue stalls the dispatcher, saturates the queue, and
// requires every excess request to fail fast with ErrOverloaded —
// mapped to HTTP 503 with a Retry-After header — while sustained
// shedding degrades /healthz and a single admitted request restores it.
func TestShedAtFullQueue(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv, unstall, stalled := stallServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := &serve.PredictRequest{Nodes: []int32{1, 2}, Seed: 7}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one into the stalled batch, one into the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Predict(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
		if i == 0 {
			// The second request fits the one-slot queue only once the
			// dispatcher has taken the first into its stalled batch.
			<-stalled
		}
	}
	waitQueueDepth(t, srv, 1)

	// Everything beyond the stalled batch + full queue sheds immediately:
	// no blocking, no unbounded queueing.
	for i := 0; i < 10; i++ {
		start := time.Now()
		_, err := srv.Predict(context.Background(), req)
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("shed request %d: got %v, want ErrOverloaded", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("shed request %d blocked %v; shedding must fail fast", i, d)
		}
	}
	if shed := srv.Statz().Shed; shed < 10 {
		t.Fatalf("serve_shed_total = %d, want >= 10", shed)
	}
	if ok, reason := srv.Health(); ok || !strings.Contains(reason, "shedding") {
		t.Fatalf("sustained shedding did not degrade health: ok=%v reason=%q", ok, reason)
	}

	// The HTTP surface maps the shed to 503 and tells clients when to
	// come back.
	resp := mustPost(t, hs.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed over HTTP: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed 503 carries no Retry-After header")
	}
	resp.Body.Close()

	// /metrics exposes the shed counter.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "serve_shed_total") {
		t.Fatal("/metrics missing serve_shed_total")
	}

	// Unblock; the two admitted requests finish, and one post-recovery
	// admission resets the consecutive-shed counter.
	unstall()
	wg.Wait()
	if _, err := srv.Predict(context.Background(), req); err != nil {
		t.Fatalf("predict after recovery: %v", err)
	}
	if ok, reason := srv.Health(); !ok {
		t.Fatalf("health still degraded after recovery: %s", reason)
	}
}

// TestRequestTimeoutExpires serves against a stalled dispatcher with a
// per-request deadline: the caller gets context.DeadlineExceeded (HTTP
// 504), serve_deadline_expired_total increments, and once the stall
// clears the server serves normally.
func TestRequestTimeoutExpires(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv, unstall, _ := stallServer(t, dir, ckptPath, serve.Config{RequestTimeout: 50 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := &serve.PredictRequest{Nodes: []int32{1}, Seed: 3}
	_, err := srv.Predict(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled predict: got %v, want DeadlineExceeded", err)
	}
	resp := mustPost(t, hs.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled predict over HTTP: status %d, want 504", resp.StatusCode)
	}
	resp.Body.Close()
	if n := srv.Statz().DeadlineExpired; n < 2 {
		t.Fatalf("serve_deadline_expired_total = %d, want >= 2", n)
	}

	unstall()
	// The dispatcher drains the expired calls (their results land in
	// buffered channels nobody reads), then serves fresh traffic within
	// the same deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv.Predict(context.Background(), req); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("server never recovered after stall: %v", err)
		}
	}
}

// TestPanicContained injects a panic into one micro-batch via
// Hooks.BeforeBatch: that batch's requests fail (HTTP 500),
// serve_panics_recovered_total increments, and the very next request
// succeeds — one poisoned batch must not kill the process.
func TestPanicContained(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	var poison atomic.Bool
	cfg := serve.Config{
		MaxBatch: 1,
		Hooks: &serve.Hooks{BeforeBatch: func(int) {
			if poison.Load() {
				panic("injected chaos panic")
			}
		}},
	}
	srv := startServer(t, dir, ckptPath, cfg)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := &serve.PredictRequest{Nodes: []int32{1, 2}, Seed: 7}
	if _, err := srv.Predict(context.Background(), req); err != nil {
		t.Fatalf("pre-chaos predict: %v", err)
	}

	poison.Store(true)
	_, err := srv.Predict(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "panic recovered") {
		t.Fatalf("poisoned predict: got %v, want panic-recovered error", err)
	}
	resp := mustPost(t, hs.URL+"/v1/predict", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned predict over HTTP: status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	if n := srv.Statz().PanicsRecovered; n != 2 {
		t.Fatalf("serve_panics_recovered_total = %d, want 2", n)
	}

	poison.Store(false)
	got, err := srv.Predict(context.Background(), req)
	if err != nil {
		t.Fatalf("predict after contained panic: %v", err)
	}
	if len(got.Classes) != 2 {
		t.Fatalf("post-panic response malformed: %+v", got)
	}
	if ok, reason := srv.Health(); !ok {
		t.Fatalf("contained panic degraded health: %s", reason)
	}
}
