package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestHTTPSurface drives the JSON endpoints end to end: predict, reload,
// healthz, statz, and the error mapping for bad requests.
func TestHTTPSurface(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("/v1/predict", serve.PredictRequest{Nodes: []int32{1, 2, 3}, Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Classes) != 3 || len(pr.Logits) != 3 {
		t.Fatalf("predict: %d classes, %d logit rows, want 3", len(pr.Classes), len(pr.Logits))
	}

	// Wrong task and out-of-range IDs are client errors.
	for _, bad := range []any{
		serve.TopKRequest{Src: 1, Rel: relp(0), K: 5},   // lp endpoint on an nc dataset
		serve.PredictRequest{Nodes: []int32{}},          // empty batch
		serve.PredictRequest{Nodes: []int32{1_000_000}}, // out of range
	} {
		path := "/v1/predict"
		if _, ok := bad.(serve.TopKRequest); ok {
			path = "/v1/topk"
		}
		resp := post(path, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Reload with an empty body re-reads the current checkpoint path.
	resp = post("/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	for _, probe := range []string{"/healthz", "/statz"} {
		resp, err := http.Get(hs.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", probe, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The dispatcher counts a batch after answering its requests, so the
	// count may trail the response by a moment on a loaded machine.
	var statz serve.Statz
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(hs.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if statz.Requests > 0 && statz.Batches > 0 || time.Now().After(deadline) {
			break
		}
	}
	if statz.Requests == 0 || statz.Batches == 0 {
		t.Fatalf("statz shows no traffic: %+v", statz)
	}
	if statz.Checkpoint != ckptPath {
		t.Fatalf("statz checkpoint %q, want %q", statz.Checkpoint, ckptPath)
	}
}

// GET /metrics serves Prometheus text covering the serve and snapshot
// metric families, and a failed reload flips /healthz to 503
// with a JSON reason until the next successful reload.
func TestHTTPMetricsAndDegradedHealth(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp := mustPost(t, hs.URL+"/v1/predict", serve.PredictRequest{Nodes: []int32{1, 2}, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	// Prometheus text exposition: apart from comments, every line is one
	// series, `name{labels} value`, whose value parses as a float.
	series := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? `)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := series.FindString(line)
		if name == "" {
			t.Errorf("/metrics: malformed series line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[len(name):], 64); err != nil {
			t.Errorf("/metrics: unparseable value in %q", line)
		}
	}
	for _, want := range []string{
		"serve_requests_total",
		"serve_batches_total",
		`serve_latency_milliseconds_bucket{stage="total",le="+Inf"}`,
		"serve_queue_depth",
		"serve_snapshot_epoch",
		"serve_snapshot_loaded_timestamp_seconds",
		"serve_healthy 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	// A reload pointing at a nonexistent checkpoint fails, keeps the
	// old snapshot serving, and degrades /healthz.
	resp = mustPost(t, hs.URL+"/reload", map[string]string{"checkpoint": dir + "/missing.ckpt"})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload of a missing checkpoint should fail")
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after failed reload: status %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "degraded" || health.Reason == "" {
		t.Fatalf("degraded body = %+v", health)
	}

	// Requests still serve on the old snapshot while degraded.
	resp = mustPost(t, hs.URL+"/v1/predict", serve.PredictRequest{Nodes: []int32{1}, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict while degraded: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A successful reload restores health.
	resp = mustPost(t, hs.URL+"/reload", map[string]string{"checkpoint": ckptPath})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after recovery: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// A server with Config.Tracer set writes its serving stages as a Chrome
// Trace Event JSON array.
func TestTracedServerWritesSpans(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	srv := startServer(t, dir, ckptPath, serve.Config{Tracer: tr})
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := srv.Predict(context.Background(), &serve.PredictRequest{Nodes: []int32{1, 2, 3}, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // the dispatcher writes a batch's spans after answering it
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Cat  string `json:"cat"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(buf.Bytes(), &spans); err != nil {
		t.Fatalf("trace does not parse as JSON: %v\n%s", err, buf.String())
	}
	for _, sp := range spans {
		if sp.Cat == "serve" && sp.Name == "sample" {
			return
		}
	}
	t.Fatalf("trace holds no serve/sample span among its %d spans", len(spans))
}

func mustPost(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
