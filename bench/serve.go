package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/bench/load"
	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/marius"
)

// The serving limit: a step meets it when its tail latency is within
// latencyLimitMS, at most maxFailedShare of its requests failed or were
// refused, and the backlog when its last request was sent is at most
// what the limit allows in flight (rate x limit). The limit is two to
// three times the unloaded tail of the slowest workload (a 3-hop
// prediction for four nodes takes 10-20 ms here), so a passing step sits
// at half the limit or less and does not flip from run to run.
const (
	latencyLimitMS = 50.0
	maxFailedShare = 0.001
	// A step lasts stepS at the default measuring budget and sends at
	// least minStepRequests: three reference steps then pool 240 requests
	// or more, which is what a p95 with ten samples beyond it needs. (The
	// servers here sustain 140-1300 requests per second on two cores; the
	// 1000 requests a p99 needs do not fit a run on the slower ones.)
	stepS           = 1.0
	minStepRequests = 80
	// poolSize is the number of distinct requests a workload serves, each
	// sent equally often in every step (so the steps, and the seeds, carry
	// one mix of request sizes); checkSample of them are compared against
	// their references.
	poolSize    = 40
	checkSample = 32
)

// request is one pre-built request of the pool.
type request struct {
	body []byte
	pred *serve.PredictRequest
	topk *serve.TopKRequest
}

// requestPool builds the workload's request pool from the seed: predict
// requests of 1-4 nodes, every size equally often, or top-k requests with
// k=10, half of them filtered; nodes and sources are Zipf-skewed over the
// graph.
func (r *run) requestPool(numNodes, numRels int) (path string, pool []request) {
	rng := rand.New(rand.NewSource(r.seed + 17))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(numNodes-1))
	pool = make([]request, poolSize)
	for i := range pool {
		var q request
		if r.wl.Task == marius.TaskNC {
			path = "/v1/predict"
			nodes := make([]int32, 1+i%4)
			for j := range nodes {
				nodes[j] = int32(zipf.Uint64())
			}
			q.pred = &serve.PredictRequest{Nodes: nodes}
			q.body, _ = json.Marshal(q.pred)
		} else {
			path = "/v1/topk"
			rel := int32(rng.Intn(numRels))
			q.topk = &serve.TopKRequest{Src: int32(zipf.Uint64()), Relation: &rel, K: 10, Filter: i%2 == 0}
			q.body, _ = json.Marshal(q.topk)
		}
		pool[i] = q
	}
	return path, pool
}

// stepResult is one open-loop step judged against the limit.
type stepResult struct {
	Rate    float64
	N       int
	P50, Hi float64
	HiQ     float64
	Failed  int
	Backlog int
	LateP99 float64
	OK      bool
}

// serve loads the checkpoint into an inference server and drives it
// through the HTTP handler with the open-loop generator.
func (r *run) serve() error {
	cfg := marius.ServeConfig{
		Workers: r.procs, Seed: r.seed, InMemory: r.wl.ServeInMemory, QuantizeTable: r.wl.QuantizeTable,
	}
	srv, err := r.serveLoad(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	snap := srv.Snapshot()
	numNodes := snap.File.TableRows
	path, pool := r.requestPool(numNodes, max(snap.Meta.NumRels, 1))
	handler := srv.Handler()

	// The first checkSample distinct payloads served under load are kept
	// and compared with the same request served alone afterwards.
	var mu sync.Mutex
	underLoad := map[int][]byte{}
	send := func(pick int, keep bool) error {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(pool[pick].body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if keep {
			mu.Lock()
			if _, seen := underLoad[pick]; !seen && len(underLoad) < checkSample {
				underLoad[pick] = rec.Body.Bytes()
			}
			mu.Unlock()
		}
		return nil
	}
	scale := r.seconds / defaultSeconds
	if r.traced {
		scale /= 2
	}
	stepSeed := r.seed * 1000
	step := func(name string, rate float64, keep bool) load.Result {
		stepSeed++
		runtime.GC() // no step inherits the garbage of the one before
		n := max(int(rate*stepS*scale), int(minStepRequests*scale), 1)
		sched := load.NewSchedule(stepSeed, rate, time.Duration(float64(n)/rate*float64(time.Second)), poolSize)
		id := r.rec.Start(r.root, name)
		res := load.Run(sched, func(i int) error { return send(sched.Pick[i], keep) })
		r.rec.End(id, "rate", rate, "sent", res.Sent, "failed", res.Failed, "backlog", res.Backlog)
		return res
	}

	// Warm the server (first-request allocations, arenas) off the clock.
	for i := 0; i < 20; i++ {
		if err := send(i, false); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}

	// Three reference steps at RefRate interleaved with the ramp: 2x, half
	// of what the server sustains, and 8x, twice that; the per-stage
	// quantiles are read off the server before the 8x step floods its
	// queue.
	ref := r.wl.RefRate
	var refs []load.Result
	var ramp []stepResult
	rampStep := func(rate float64) {
		ramp = append(ramp, judge(rate, step(fmt.Sprintf("serve.step@%g", rate), rate, false)))
	}
	refs = append(refs, step("serve.reference", ref, true))
	rampStep(2 * ref)
	refs = append(refs, step("serve.reference", ref, true), step("serve.reference", ref, true))
	healthy := srv.Statz()
	rampStep(8 * ref)
	final := srv.Statz()

	// End-to-end: latency at the reference rate, and the highest rate that
	// meets the limit. The three reference steps pooled are the ladder's
	// first rung.
	var p50s []float64
	var pooled load.Result
	for _, s := range refs {
		p50s = append(p50s, load.Quantile(s.LatencyMS, 0.5))
		pooled.Sent += s.Sent
		pooled.Failed += s.Failed
		pooled.Backlog = max(pooled.Backlog, s.Backlog)
		pooled.LatencyMS = append(pooled.LatencyMS, s.LatencyMS...)
		pooled.LatenessMS = append(pooled.LatenessMS, s.LatenessMS...)
	}
	r.res.Attempted += pooled.Sent
	r.res.Failed += pooled.Failed
	p95 := load.Quantile(pooled.LatencyMS, 0.95)
	r.res.Metrics["serve_p50_ms"] = median(p50s)
	r.res.Metrics["serve_p95_ms"] = p95
	r.res.Timings["serve_latency_ms"] = summarize(pooled.LatencyMS, "ms")
	ladder := append([]stepResult{judge(ref, pooled)}, ramp...)
	maxOK := 0.0
	for _, s := range ladder {
		r.logf("serve  %5.0f rps: n=%d p50=%.2fms p%g=%.2fms failed=%d backlog=%d late_p99=%.2fms ok=%v",
			s.Rate, s.N, s.P50, s.HiQ*100, s.Hi, s.Failed, s.Backlog, s.LateP99, s.OK)
		if s.OK && s.Rate > maxOK {
			maxOK = s.Rate
		}
	}
	r.res.Metrics["serve_max_ok_rps"] = maxOK
	r.res.check("serve-meets-limit", maxOK > 0, "highest passing step %.0f rps of %g, %g, %g", maxOK, ref, 2*ref, 8*ref)

	// Per-layer: the server's own stage quantiles over the healthy steps,
	// its refusal counters over everything.
	lat := healthy.Latency
	r.m["serve.queue_wait_p50_ms"] = lat["queue_wait"].P50
	r.m["serve.queue_wait_p99_ms"] = lat["queue_wait"].P99
	r.m["serve.sample_p50_ms"] = lat["sample"].P50
	r.m["serve.encode_p50_ms"] = lat["encode"].P50
	r.m["serve.decode_p50_ms"] = lat["decode"].P50
	r.m["serve.mean_batch_size"] = ratio(float64(healthy.Requests), float64(healthy.Batches))
	r.m["serve.shed"] = float64(final.Shed)
	r.m["serve.deadline_expired"] = float64(final.DeadlineExpired)
	r.m["serve.errors"] = float64(final.Errors)
	r.m["serve.gen_lateness_p99_ms"] = load.Quantile(pooled.LatenessMS, 0.99)
	r.m["serve.reference_p50_ms"] = median(p50s)
	r.m["serve.reference_p95_ms"] = p95
	r.m["serve.max_ok_rps"] = maxOK

	if err := r.checkResponses(srv, handler, path, pool, underLoad); err != nil {
		return err
	}
	if r.traced {
		r.httpOverhead(srv, send, pool, max(int(100*scale), 10))
	}
	return nil
}

// judge reduces a step to its latency summary and holds it to the limit.
// The tail is the highest percentile, p99 at most, that leaves ten of the
// step's requests beyond it.
func judge(rate float64, res load.Result) stepResult {
	s := stepResult{Rate: rate, N: res.Sent, Failed: res.Failed, Backlog: res.Backlog}
	s.P50 = load.Quantile(res.LatencyMS, 0.5)
	s.HiQ = min(highestQuantile(res.Sent), 0.99)
	if s.HiQ == 0 {
		s.HiQ = 0.75
	}
	s.Hi = load.Quantile(res.LatencyMS, s.HiQ)
	s.LateP99 = load.Quantile(res.LatenessMS, 0.99)
	s.OK = s.Hi <= latencyLimitMS &&
		float64(res.Failed) <= maxFailedShare*float64(res.Sent) &&
		float64(res.Backlog) <= rate*latencyLimitMS/1000
	return s
}

// serveLoad times checkpoint -> servable server. Untraced, the product
// call (marius.LoadForInference) is repeated seven times and its median
// reported;
// traced, its three parts are timed one by one.
func (r *run) serveLoad(cfg marius.ServeConfig) (*marius.InferenceServer, error) {
	if r.traced {
		scfg := serve.Config(cfg)
		t0 := time.Now()
		id := r.rec.Start(r.root, "serve.Open")
		sctx, err := serve.Open(r.dataDir, scfg)
		r.rec.End(id)
		if r.res.op(err) != nil {
			return nil, err
		}
		t1 := time.Now()
		id = r.rec.Start(r.root, "serve.Load")
		snap, err := serve.Load(sctx, r.ckpt, scfg)
		r.rec.End(id)
		if err != nil {
			sctx.Close()
			return nil, err
		}
		r.m["serve.open_s"] = t1.Sub(t0).Seconds()
		r.m["serve.snapshot_load_s"] = time.Since(t1).Seconds()
		r.m["serve.ready_s"] = time.Since(t0).Seconds()
		return serve.New(sctx, snap, scfg), nil
	}
	const reps = 7
	var walls []float64
	var srv *marius.InferenceServer
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		srv, err = marius.LoadForInference(r.dataDir, r.ckpt, cfg)
		if r.res.op(err) != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	r.res.Metrics["serve_ready_s"] = median(walls)
	r.res.Timings["serve_ready_s"] = summarize(walls, "s")
	return srv, nil
}

// checkResponses holds the served outputs to their references: every
// sampled response under load must equal, byte for byte, the same
// request served alone (micro-batching must not change results), and
// every sampled top-k must equal the full ranking decoder.ScoreAll gives
// for the same encoded source.
func (r *run) checkResponses(srv *marius.InferenceServer, handler http.Handler, path string, pool []request, underLoad map[int][]byte) error {
	picks := make([]int, 0, len(underLoad))
	for p := range underLoad {
		picks = append(picks, p)
	}
	sort.Ints(picks)
	mismatched := 0
	alone := map[int][]byte{}
	for _, p := range picks {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(pool[p].body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		alone[p] = rec.Body.Bytes()
		if rec.Code != http.StatusOK || !bytes.Equal(alone[p], underLoad[p]) {
			mismatched++
		}
	}
	r.res.check("served-equals-single", len(picks) > 0 && mismatched == 0,
		"%d of %d sampled responses differ from the same request served alone", mismatched, len(picks))
	if r.wl.Task != marius.TaskLP {
		return nil
	}

	// Rebuild what the server scores against, from its own snapshot and
	// the dataset's bucket-ordered edge file (the adjacency serving and
	// evaluation both use).
	snap := srv.Snapshot()
	adj, err := datasetAdjacency(r.dataDir)
	if err != nil {
		return err
	}
	table := snap.EncTable
	if snap.EncQ != nil {
		table = snap.EncQ.Dequant()
	}
	fwd := encode.New(encode.Config{
		Encoder: snap.Encoder, Params: snap.Params,
		Fanouts: snap.Meta.Fanouts[:snap.Meta.Layers], Dirs: graph.Both, Workers: 1,
	}, adj, 0)
	wrong := 0
	for _, p := range picks {
		q := pool[p].topk
		var got serve.TopKResponse
		if err := json.Unmarshal(alone[p], &got); err != nil {
			return fmt.Errorf("top-k response: %w", err)
		}
		// The server seeds a request's neighbourhood sample from its
		// content; asking for the response's own seed is not possible
		// from outside, so the reference pins the seed explicitly and
		// asks the server the same.
		pinned := *q
		pinned.Seed = int64(p + 1)
		resp, err := srv.TopK(context.Background(), &pinned)
		if err != nil {
			return fmt.Errorf("pinned top-k: %w", err)
		}
		d := fwd.SampleSeeded(pinned.Seed, []int32{q.Src})
		enc, err := fwd.EncodeDense(snap.Store, d)
		if err != nil {
			return err
		}
		scores := decoder.ScoreAll(snap.Decoder, enc.Value.Row(0), snap.RelTable.Row(int(*q.Relation)), table)
		fwd.Recycle(d)
		var want []int32
		if q.Filter {
			known := map[int32]bool{}
			nbrs, rels := adj.OutNeighbors(q.Src), adj.OutRels(q.Src)
			for i, dst := range nbrs {
				if rels[i] == *q.Relation {
					known[dst] = true
				}
			}
			want = decoder.TopKSkip(scores, q.K, func(id int32) bool { return known[id] })
		} else {
			want = decoder.TopK(scores, q.K)
		}
		ok := len(resp.Nodes) == len(want) && len(got.Nodes) == len(want)
		for j := 0; ok && j < len(want); j++ {
			ok = resp.Nodes[j] == want[j] && resp.Scores[j] == scores[want[j]]
		}
		if !ok {
			wrong++
		}
	}
	r.res.check("topk-equals-scoreall", wrong == 0, "%d of %d sampled top-k responses differ from decoder.ScoreAll", wrong, len(picks))
	return nil
}

// datasetAdjacency builds the full-graph adjacency from the dataset's
// edge file in bucket order.
func datasetAdjacency(dir string) (*graph.Adjacency, error) {
	ds, err := storage.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	es, err := ds.EdgeStore(nil)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	var edges []graph.Edge
	p := ds.Man.Partitions
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if edges, err = es.ReadBucket(i, j, edges); err != nil {
				return nil, err
			}
		}
	}
	return graph.BuildAdjacency(ds.Man.NumNodes, edges), nil
}

// httpOverhead measures what the HTTP surface adds to a request: the
// median of n sequential requests through the handler minus the median of
// the same requests through the server's Go API.
func (r *run) httpOverhead(srv *marius.InferenceServer, send func(int, bool) error, pool []request, n int) {
	var viaHTTP, direct []float64
	for i := 0; i < n; i++ {
		p := i % len(pool)
		t0 := time.Now()
		_ = send(p, false)
		viaHTTP = append(viaHTTP, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if pool[p].pred != nil {
			_, _ = srv.Predict(context.Background(), pool[p].pred)
		} else {
			_, _ = srv.TopK(context.Background(), pool[p].topk)
		}
		direct = append(direct, time.Since(t0).Seconds()*1e3)
	}
	r.m["serve.http_overhead_p50_ms"] = median(viaHTTP) - median(direct)
}
