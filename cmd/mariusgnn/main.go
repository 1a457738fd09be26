// Command mariusgnn trains a GNN on a generated benchmark graph with any
// combination of task, model, storage mode and replacement policy, through
// the marius Session API. Flag defaults are the paper defaults exported by
// the marius package. Ctrl-C cancels the run cleanly mid-epoch; -checkpoint
// saves resumable state every epoch and -resume restarts from it. A run
// killed outright (crash, OOM, kill -9) is continued by -resume-dir, which
// replays the run journal written alongside the checkpoint and finishes
// with losses and a final checkpoint byte-identical to an uninterrupted
// run.
//
// Examples:
//
//	mariusgnn -task nc -nodes 50000 -storage mem -epochs 5
//	mariusgnn -task lp -dataset fb15k237 -storage disk -policy comet -epochs 5
//	mariusgnn -task lp -model distmult -storage disk -policy beta
//	mariusgnn -task lp -model distmult -decoder complex -ranking -filtered
//	mariusgnn -task lp -epochs 20 -checkpoint run.ckpt   # later: -resume run.ckpt
//	mariusgnn -data data/fb -checkpoint ckpts/run.ckpt   # killed? -resume-dir ckpts
//	mariusgnn -data data/fb -storage disk -pipeline 2    # mariusprep-prepared directory
//	mariusgnn -storage disk -pipeline 2 -metrics-addr :9090 -trace run.trace
//	  # then: curl -s localhost:9090/metrics ; load run.trace in chrome://tracing
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/marius"
)

func main() {
	var (
		task      = flag.String("task", "nc", "nc (node classification) or lp (link prediction)")
		dataset   = flag.String("dataset", "", "nc: sbm; lp: fb15k237, freebase, wiki (default per task)")
		data      = flag.String("data", "", "train from a mariusprep-prepared dataset directory (task, seed and partitions come from its manifest)")
		nodes     = flag.Int("nodes", 20000, "graph size for generated datasets")
		model     = flag.String("model", "graphsage", "graphsage, gat, gcn, distmult")
		decoderF  = flag.String("decoder", "", "lp scoring decoder: distmult, complex, transe (default distmult)")
		ranking   = flag.Bool("ranking", false, "evaluate lp with the ranking protocol, printing MRR and Hits@1/10 per eval epoch")
		filtered  = flag.Bool("filtered", false, "filtered ranking: drop known true triples from candidate sets (implies -ranking)")
		storageF  = flag.String("storage", "mem", "mem or disk")
		policyF   = flag.String("policy", "comet", "comet or beta (disk link prediction)")
		layers    = flag.Int("layers", 0, "GNN layers (0 = task default)")
		dim       = flag.Int("dim", marius.DefaultDim, "hidden/embedding dimensionality")
		batch     = flag.Int("batch", marius.DefaultBatchSize, "mini-batch size")
		negs      = flag.Int("negatives", marius.DefaultNegatives, "negatives per batch (lp)")
		epochs    = flag.Int("epochs", 5, "training epochs")
		parts     = flag.Int("partitions", 0, "physical partitions (0 = auto-tune)")
		capacity  = flag.Int("capacity", 0, "buffer capacity (0 = auto-tune)")
		logical   = flag.Int("logical", 0, "logical partitions (0 = auto-tune)")
		pipeline  = flag.Int("pipeline", 0, "visits loaded ahead of the trainer (0 = load a visit only once the previous one is done)")
		workers   = flag.Int("workers", marius.DefaultWorkers, "batch-construction workers / kernel fan-out")
		mbps      = flag.Float64("disk-mbps", 0, "simulated disk bandwidth in MB/s (0 = unlimited)")
		noEval    = flag.Bool("no-eval", false, "skip final valid/test evaluation (it materializes the full graph — use for larger-than-RAM -data runs)")
		patience  = flag.Int("patience", 0, "early-stopping patience in epochs (0 = off)")
		ckpt      = flag.String("checkpoint", "", "save a resumable checkpoint here every epoch")
		resume    = flag.String("resume", "", "restore training state from this checkpoint before running")
		resumeDir = flag.String("resume-dir", "", "continue a killed checkpointed run from the journal in this directory (where -checkpoint wrote); the journal records the full session configuration, so other flags are ignored")
		serveHint = flag.Bool("serve-export", false, "print the mariusserve invocation for the saved checkpoint after the run")
		metrics   = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text) and /debug/pprof/ on this address during the run")
		traceF    = flag.String("trace", "", "write pipeline/storage stage spans to this file in Chrome Trace Event Format")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *resumeDir != "" {
		resumeFromJournal(*resumeDir, *noEval)
		return
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	seedSet := explicit["seed"]
	if *data != "" {
		// A prepared dataset fixes the task and the graph; silently
		// dropping these flags would train something other than what the
		// user asked for.
		for _, name := range []string{"task", "dataset", "nodes"} {
			if explicit[name] {
				log.Fatalf("-%s conflicts with -data: the prepared dataset's manifest decides it", name)
			}
		}
	}

	opts := []marius.Option{
		marius.WithDim(*dim), marius.WithBatchSize(*batch),
		marius.WithNegatives(*negs),
	}
	// Observability is purely additive: checkpoints and losses are
	// byte-identical with or without it.
	if *metrics != "" {
		reg := marius.NewMetrics()
		opts = append(opts, marius.WithMetrics(reg))
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	if *traceF != "" {
		tr, err := marius.NewTracer(*traceF)
		if err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
		opts = append(opts, marius.WithTrace(tr))
	}
	// A prepared dataset carries its prep seed; only override it when
	// the flag was given explicitly.
	if *data == "" || seedSet {
		opts = append(opts, marius.WithSeed(*seed))
	}
	if *layers > 0 {
		opts = append(opts, marius.WithLayers(*layers))
	}
	switch *model {
	case "graphsage":
		opts = append(opts, marius.WithModel(marius.GraphSage))
	case "gat":
		opts = append(opts, marius.WithModel(marius.GAT))
	case "gcn":
		opts = append(opts, marius.WithModel(marius.GCN))
	case "distmult":
		opts = append(opts, marius.WithModel(marius.DistMultOnly))
	default:
		log.Fatalf("unknown model %q", *model)
	}
	// WithDecoder is a typed error on node classification, so only an
	// explicit flag reaches the session.
	switch *decoderF {
	case "":
	case "distmult":
		opts = append(opts, marius.WithDecoder(marius.DistMult))
	case "complex":
		opts = append(opts, marius.WithDecoder(marius.ComplEx))
	case "transe":
		opts = append(opts, marius.WithDecoder(marius.TransE))
	default:
		log.Fatalf("unknown decoder %q", *decoderF)
	}
	var evalOpts []marius.EvalOption
	if *ranking || *filtered {
		evalOpts = append(evalOpts, marius.RankingEval(1, 10))
		if *filtered {
			evalOpts = append(evalOpts, marius.FilteredEval())
		}
	}
	if *storageF == "disk" {
		dir, err := os.MkdirTemp("", "mariusgnn-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		var disk []marius.DiskOption
		if *parts > 0 {
			disk = append(disk, marius.Partitions(*parts))
		}
		if *capacity > 0 {
			disk = append(disk, marius.Capacity(*capacity))
		}
		if *logical > 0 {
			disk = append(disk, marius.LogicalPartitions(*logical))
		}
		if *mbps > 0 {
			disk = append(disk, marius.Throttled(storage.NewThrottle(*mbps*1e6)))
		}
		opts = append(opts, marius.WithDisk(dir, disk...))
	}
	switch *policyF {
	case "comet":
		// COMET is the marius default.
	case "beta":
		opts = append(opts, marius.WithPolicy(marius.BETA))
	default:
		log.Fatalf("unknown policy %q", *policyF)
	}
	opts = append(opts, marius.WithWorkers(*workers))
	if *pipeline > 0 {
		opts = append(opts, marius.WithPipeline(*pipeline))
	}

	var sess *marius.Session
	var err error
	if *data != "" {
		sess, err = marius.FromDataset(*data, opts...)
		if err != nil {
			log.Fatal(err)
		}
		o := sess.Options()
		fmt.Printf("dataset %s: task %s, %d nodes, %d partitions, seed %d\n",
			*data, sess.Task().Name(), sess.Graph().NumNodes, o.Partitions, o.Seed)
	} else {
		var g *graph.Graph
		var mtask marius.Task
		switch *task {
		case "nc":
			g = gen.SBM(gen.DefaultSBM(*nodes, *seed))
			fmt.Printf("SBM graph: %d nodes, %d edges, %d classes, %d train nodes\n",
				g.NumNodes, len(g.Edges), g.NumClasses, len(g.TrainNodes))
			mtask = marius.NodeClassification()
		case "lp":
			switch *dataset {
			case "", "fb15k237":
				g = gen.KG(gen.FB15k237Scale(float64(*nodes)/14541.0, *seed))
			case "freebase":
				g = gen.KG(gen.FreebaseScale(86_000_000 / *nodes, *seed))
			case "wiki":
				g = gen.KG(gen.WikiScale(91_000_000 / *nodes, *seed))
			default:
				log.Fatalf("unknown lp dataset %q", *dataset)
			}
			fmt.Printf("KG: %d entities, %d relations, %d train edges\n",
				g.NumNodes, g.NumRels, len(g.Edges))
			mtask = marius.LinkPrediction()
		default:
			log.Fatalf("unknown task %q", *task)
		}
		sess, err = marius.New(mtask, g, opts...)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer sess.Close()
	if *resume != "" {
		if err := sess.Restore(*resume); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed from %s at epoch %d\n", *resume, sess.Task().Epoch())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runOpts := []marius.RunOption{
		marius.Epochs(*epochs),
		marius.OnEpoch(func(p marius.Progress) error {
			st := p.Stats
			line := fmt.Sprintf("epoch %d: %.2fs loss=%.4f train-metric=%.4f visits=%d sample=%.2fs compute=%.2fs io=%.1fMB",
				p.Epoch, st.Duration.Seconds(), st.Loss, st.Metric, st.Visits,
				st.Sample.Seconds(), st.Compute.Seconds(),
				float64(st.IO.BytesRead+st.IO.BytesWritten)/1e6)
			if h, m := st.IO.PrefetchHits, st.IO.PrefetchMisses; h+m > 0 {
				line += fmt.Sprintf(" read=%.1fMB prefetch-hit=%.0f%%",
					float64(st.IO.BytesRead)/1e6, 100*float64(h)/float64(h+m))
			}
			if st.Pipeline.Depth > 0 {
				line += fmt.Sprintf(" load-wait=%.2fs batch-wait=%.2fs",
					st.Pipeline.LoadWait.Seconds(), st.Pipeline.BatchWait.Seconds())
			}
			fmt.Println(line)
			if p.Valid != nil {
				fmt.Printf("  %v\n", *p.Valid)
			}
			return nil
		}),
	}
	if *patience > 0 {
		runOpts = append(runOpts, marius.EarlyStopping(*patience, 1e-4))
	}
	if len(evalOpts) > 0 {
		runOpts = append(runOpts, marius.EvalEvery(1), marius.EvalWith(evalOpts...))
	}
	if *ckpt != "" {
		runOpts = append(runOpts, marius.CheckpointTo(*ckpt, 1))
	}
	res, err := sess.Run(ctx, runOpts...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Printf("run canceled after %d epochs\n", len(res.Epochs))
			return
		}
		log.Fatal(err)
	}
	if res.Stopped != marius.Completed {
		fmt.Printf("run stopped: %s\n", res.Stopped)
	}
	if *serveHint && *ckpt != "" {
		// Checkpoints embed the prepared dataset's UUID, so mariusserve
		// can verify this exact pairing at load time.
		if *data != "" {
			fmt.Printf("serve it: mariusserve -data %s -checkpoint %s\n", *data, *ckpt)
		} else {
			fmt.Printf("serve it: prepare the same graph with mariusprep, then mariusserve -data <dir> -checkpoint %s\n", *ckpt)
		}
	}

	if *noEval {
		return
	}
	valid, err := sess.Evaluate(marius.ValidSplit, evalOpts...)
	if err != nil {
		log.Fatal(err)
	}
	test, err := sess.Evaluate(marius.TestSplit, evalOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if len(evalOpts) > 0 {
		fmt.Printf("validation %v\ntest %v\n", valid, test)
	} else {
		fmt.Printf("validation %s %.4f, test %s %.4f\n", valid.Metric, valid.Value, test.Metric, test.Value)
	}
}

// resumeFromJournal continues a crashed checkpointed run: the journal in
// dir records the dataset, session options, epoch target and checkpoint
// location, so the combined run finishes with losses and a final
// checkpoint byte-identical to one that was never interrupted.
func resumeFromJournal(dir string, noEval bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sess, res, err := marius.Resume(ctx, dir)
	if errors.Is(err, marius.ErrNoJournal) {
		log.Fatalf("%s holds no run journal: the crash (if any) predates all durable state — start the run fresh", dir)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && res != nil {
			fmt.Printf("resume canceled after %d epochs\n", len(res.Epochs))
			return
		}
		log.Fatal(err)
	}
	defer sess.Close()
	for _, st := range res.Epochs {
		fmt.Printf("epoch %d: loss=%.4f train-metric=%.4f\n", st.Epoch, st.Loss, st.Metric)
	}
	fmt.Printf("resumed run complete: %d epochs total\n", len(res.Epochs))
	if noEval {
		return
	}
	valid, err := sess.Evaluate(marius.ValidSplit)
	if err != nil {
		log.Fatal(err)
	}
	test, err := sess.Evaluate(marius.TestSplit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation %s %.4f, test %s %.4f\n", valid.Metric, valid.Value, test.Metric, test.Value)
}
