package marius_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/marius"
)

// prepNC ingests a small exported SBM graph for node classification.
func prepNC(t *testing.T, seed int64, parts int) string {
	t.Helper()
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 400, NumClasses: 4, AvgDegree: 5, FeatureDim: 8,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 13,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "nc", seed, parts)); err != nil {
		t.Fatal(err)
	}
	return out
}

// crashVariant is one cell of the crash-resume differential matrix.
type crashVariant struct {
	name    string
	prep    func(t *testing.T, seed int64, parts int) string
	opts    func(workDir string) []marius.Option
	epochs  int
	ckEvery int
}

func crashVariants() []crashVariant {
	base := func(dim int, disk []marius.DiskOption, extra ...marius.Option) func(string) []marius.Option {
		return func(workDir string) []marius.Option {
			return append([]marius.Option{
				marius.WithDisk(workDir, disk...),
				marius.WithDim(dim),
				marius.WithFanouts(4, 4),
				marius.WithBatchSize(64),
			}, extra...)
		}
	}
	ncDisk := []marius.DiskOption{marius.Capacity(2)}
	// COMET needs the buffer to hold at least 2 logical partitions; with
	// p=4 and c=2 that means l=p.
	lpDisk := []marius.DiskOption{marius.Capacity(2), marius.LogicalPartitions(4)}
	return []crashVariant{
		{name: "nc-serial", prep: prepNC, opts: base(8, ncDisk), epochs: 3, ckEvery: 1},
		{name: "nc-pipelined", prep: prepNC, opts: base(8, ncDisk, marius.WithPipeline(2)), epochs: 3, ckEvery: 1},
		{name: "lp-serial", prep: prepLP, opts: base(8, lpDisk, marius.WithNegatives(16)), epochs: 3, ckEvery: 1},
		{name: "lp-pipelined", prep: prepLP, opts: base(8, lpDisk, marius.WithNegatives(16), marius.WithPipeline(2)), epochs: 3, ckEvery: 1},
		// Resume rebuilds the session from the journal alone, so the
		// decoder must be journaled too.
		{name: "lp-complex", prep: prepLP, opts: base(8, lpDisk, marius.WithNegatives(16), marius.WithDecoder(marius.ComplEx)), epochs: 3, ckEvery: 1},
	}
}

// runToCompletion trains a full checkpointed run through fsys (nil for
// the real filesystem), returning the result and the final checkpoint
// bytes.
func runToCompletion(t *testing.T, dataDir, workDir, ckptDir string, v crashVariant, fsys fault.FS) (*marius.RunResult, []byte) {
	t.Helper()
	opts := v.opts(workDir)
	if fsys != nil {
		opts = append(opts, marius.WithFaults(fsys))
	}
	sess, err := marius.FromDataset(dataDir, opts...)
	if err != nil {
		t.Fatalf("FromDataset: %v", err)
	}
	defer sess.Close()
	ckptPath := filepath.Join(ckptDir, "run.ckpt")
	res, err := sess.Run(context.Background(),
		marius.Epochs(v.epochs), marius.CheckpointTo(ckptPath, v.ckEvery))
	if err != nil {
		t.Fatalf("clean Run: %v", err)
	}
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatalf("read final checkpoint: %v", err)
	}
	return res, raw
}

// sameLosses compares two loss trajectories bit-exactly.
func sameLosses(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: epoch %d loss %v != %v (not bit-identical)", label, i+1, got[i], want[i])
		}
	}
}

func losses(res *marius.RunResult) []float64 {
	out := make([]float64, 0, len(res.Epochs))
	for _, st := range res.Epochs {
		out = append(out, st.Loss)
	}
	return out
}

// TestCrashResumeDifferential is the crash-safety gate: kill a
// checkpointed dataset training run at a randomized write count
// (simulating kill -9: the Nth write is torn and every later IO fails),
// then Resume it and require the combined run to produce per-epoch
// losses and a final checkpoint byte-identical to a run that was never
// interrupted — across serial and pipelined execution, for both tasks.
func TestCrashResumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("crash differential trains many small runs")
	}
	for _, v := range crashVariants() {
		t.Run(v.name, func(t *testing.T) {
			dataDir := v.prep(t, 11, 4)

			// Reference run, through a zero-rate injector: identical to a
			// plain run (passthrough) but counts writes, bounding the kill
			// points.
			counter := fault.NewInjector(fault.OS, fault.Config{Seed: 1})
			wantRes, wantCkpt := runToCompletion(t, dataDir, t.TempDir(), t.TempDir(), v, counter)
			wantLosses := losses(wantRes)
			totalWrites := counter.Writes()
			if totalWrites == 0 {
				t.Fatal("reference run performed no writes; crash points are meaningless")
			}

			rng := rand.New(rand.NewSource(7))
			kills := []int64{1 + rng.Int63n(totalWrites), 1 + rng.Int63n(totalWrites)}
			for _, kill := range kills {
				workDir, ckptDir := t.TempDir(), t.TempDir()
				inj := fault.NewInjector(fault.OS, fault.Config{Seed: 2, CrashAfterWrites: kill})

				// The "process" that gets killed.
				crashed := func() error {
					sess, err := marius.FromDataset(dataDir,
						append(v.opts(workDir), marius.WithFaults(inj))...)
					if err != nil {
						return err
					}
					defer sess.Close()
					_, err = sess.Run(context.Background(),
						marius.Epochs(v.epochs),
						marius.CheckpointTo(filepath.Join(ckptDir, "run.ckpt"), v.ckEvery))
					return err
				}()
				if crashed == nil {
					t.Fatalf("kill after %d/%d writes: run finished without surfacing the crash", kill, totalWrites)
				}
				if !inj.Crashed() {
					t.Fatalf("kill after %d writes: injector never crashed (run failed with %v)", kill, crashed)
				}

				// Restart: Resume finishes the run; if the crash predates
				// all durable state there is no journal and a fresh process
				// simply reruns from scratch.
				sess, res, err := marius.Resume(context.Background(), ckptDir)
				if errors.Is(err, marius.ErrNoJournal) {
					t.Logf("kill at write %d/%d: before first journal write, rerunning fresh", kill, totalWrites)
					res, _ = runToCompletion(t, dataDir, workDir, ckptDir, v, nil)
				} else if err != nil {
					t.Fatalf("kill after %d writes: Resume: %v", kill, err)
				} else {
					t.Logf("kill at write %d/%d: resumed from journal (%d retrained epochs)",
						kill, totalWrites, len(res.Epochs))
					defer sess.Close()
				}

				label := v.name + "/resume"
				sameLosses(t, label, losses(res), wantLosses)
				gotCkpt, err := os.ReadFile(filepath.Join(ckptDir, "run.ckpt"))
				if err != nil {
					t.Fatalf("%s: final checkpoint missing after resume: %v", label, err)
				}
				if !bytes.Equal(gotCkpt, wantCkpt) {
					t.Errorf("%s (kill at write %d): final checkpoint differs from the uninterrupted run's", label, kill)
				}
			}
		})
	}
}

// TestTransientWeatherMatchesClean trains each crash variant through an
// injector that randomly fails and truncates IO: the bounded retry loops
// must absorb every blip, leaving per-epoch losses and the final checkpoint
// byte-identical to the clean run.
func TestTransientWeatherMatchesClean(t *testing.T) {
	for _, v := range crashVariants() {
		t.Run(v.name, func(t *testing.T) {
			dataDir := v.prep(t, 11, 4)
			wantRes, wantCkpt := runToCompletion(t, dataDir, t.TempDir(), t.TempDir(), v, nil)

			inj := fault.NewInjector(nil, fault.Config{
				Seed: 5, Transient: 0.08, Short: 0.04,
				Latency: 100 * time.Microsecond, LatencyRate: 0.002,
			})
			sess, err := marius.FromDataset(dataDir, append(v.opts(t.TempDir()), marius.WithFaults(inj))...)
			if err != nil {
				t.Fatalf("FromDataset: %v", err)
			}
			defer sess.Close()
			ckptPath := filepath.Join(t.TempDir(), "run.ckpt")
			res, err := sess.Run(context.Background(), marius.Epochs(v.epochs), marius.CheckpointTo(ckptPath, v.ckEvery))
			if err != nil {
				t.Fatalf("Run under IO weather: %v", err)
			}

			transients, shorts, _ := inj.Injected()
			if transients+shorts == 0 {
				t.Fatal("the injector injected no faults; the run tested nothing")
			}
			t.Logf("%d transient and %d short IO faults injected", transients, shorts)
			// Link prediction puts every partition and bucket read and every
			// write-back through the stores' retry loops; node
			// classification's few faults may land elsewhere.
			if sess.Task().Name() == marius.TaskLP {
				src := sess.Task().Source()
				nodes, edges := src.Disk.Stats().Snapshot(), src.Edges.Stats().Snapshot()
				if nodes.Retries+edges.Retries == 0 {
					t.Errorf("no retries absorbed despite %d injected transients", transients)
				}
				if gaveup := nodes.Gaveup + edges.Gaveup; gaveup != 0 {
					t.Errorf("%d operations exhausted their retries", gaveup)
				}
			}
			sameLosses(t, v.name+"/weather", losses(res), losses(wantRes))
			gotCkpt, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCkpt, wantCkpt) {
				t.Error("final checkpoint under IO weather differs from the clean run's")
			}
		})
	}
}

// TestResumeNoJournal pins the fresh-start contract: a directory with no
// journal (crash before any durable write) reports ErrNoJournal.
func TestResumeNoJournal(t *testing.T) {
	if _, _, err := marius.Resume(context.Background(), t.TempDir()); !errors.Is(err, marius.ErrNoJournal) {
		t.Fatalf("Resume on empty dir: %v, want ErrNoJournal", err)
	}
}

// TestJournaledRunResumesAfterCompletion pins the idempotence of Resume
// on a run that already finished: nothing retrains, and the journaled
// losses come back bit-identical.
func TestJournaledRunResumesAfterCompletion(t *testing.T) {
	dataDir := prepLP(t, 3, 4)
	v := crashVariants()[2] // lp-serial
	ckptDir := t.TempDir()
	wantRes, wantCkpt := runToCompletion(t, dataDir, t.TempDir(), ckptDir, v, nil)

	sess, res, err := marius.Resume(context.Background(), ckptDir)
	if err != nil {
		t.Fatalf("Resume after completion: %v", err)
	}
	defer sess.Close()
	if res.Stopped != marius.Completed {
		t.Fatalf("Stopped = %v, want Completed", res.Stopped)
	}
	sameLosses(t, "completed-resume", losses(res), losses(wantRes))
	raw, err := os.ReadFile(filepath.Join(ckptDir, "run.ckpt"))
	if err != nil || !bytes.Equal(raw, wantCkpt) {
		t.Fatalf("checkpoint disturbed by no-op resume (err=%v)", err)
	}
}

// TestResumeAcceptsParentJournal pins that a journal recording exactly
// the option keys journals carried before Options journaled itself (no
// "decoder", no "relations") still resumes, and trains the DistMult run it
// recorded: one more target epoch lands on the losses and checkpoint of an
// uninterrupted run that long.
func TestResumeAcceptsParentJournal(t *testing.T) {
	dataDir := prepLP(t, 3, 4)
	v := crashVariants()[2] // lp-serial
	ckptDir := t.TempDir()
	runToCompletion(t, dataDir, t.TempDir(), ckptDir, v, nil)
	longer := v
	longer.epochs++
	wantRes, wantCkpt := runToCompletion(t, dataDir, t.TempDir(), t.TempDir(), longer, nil)

	jpath, j, err := ckpt.FindJournal(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	var opts map[string]json.RawMessage
	if err := json.Unmarshal(j.Opts, &opts); err != nil {
		t.Fatal(err)
	}
	// The parent's keys, true where it always wrote the key (false:
	// omitempty).
	parent := map[string]bool{
		"storage": true, "model": true, "policy": true, "dir": false,
		"dim": true, "layers": true, "fanouts": true, "batch_size": true, "negatives": true,
		"lr": true, "emb_lr": true, "partitions": true, "buffer_capacity": false,
		"logical_partitions": false, "cpu_bytes": true, "block_bytes": true,
		"workers": true, "pipeline_depth": false, "seed": true,
	}
	for k, always := range parent {
		if _, ok := opts[k]; always && !ok {
			t.Fatalf("journal no longer records %q", k)
		}
	}
	for k := range opts {
		if _, ok := parent[k]; !ok {
			delete(opts, k)
		}
	}
	if j.Opts, err = json.Marshal(opts); err != nil {
		t.Fatal(err)
	}
	j.Epochs++
	if err := ckpt.WriteJournal(nil, jpath, j); err != nil {
		t.Fatal(err)
	}

	sess, res, err := marius.Resume(context.Background(), ckptDir)
	if err != nil {
		t.Fatalf("Resume of a parent-keyed journal: %v", err)
	}
	defer sess.Close()
	sameLosses(t, "parent-journal", losses(res), losses(wantRes))
	raw, err := os.ReadFile(filepath.Join(ckptDir, "run.ckpt"))
	if err != nil || !bytes.Equal(raw, wantCkpt) {
		t.Fatalf("resumed checkpoint differs from the uninterrupted run's (err=%v)", err)
	}
}

// TestResumeRefusesUnknownJournalOption pins that Resume refuses a journal
// recording an option this build cannot honour (an unknown key such as
// "mode", the removed per-layer execution mode, or a model kind outside
// the enum) instead of dropping it and resuming a different trajectory:
// the error names what it refused and nothing retrains.
func TestResumeRefusesUnknownJournalOption(t *testing.T) {
	dataDir := prepNC(t, 3, 4)
	for _, tc := range []struct{ key, value, named string }{
		{"mode", "1", `"mode"`},
		{"model", "9", "model(9)"},
	} {
		t.Run(tc.key, func(t *testing.T) {
			v := crashVariants()[0] // nc-serial
			ckptDir := t.TempDir()
			_, wantCkpt := runToCompletion(t, dataDir, t.TempDir(), ckptDir, v, nil)

			jpath, j, err := ckpt.FindJournal(ckptDir)
			if err != nil {
				t.Fatal(err)
			}
			var opts map[string]json.RawMessage
			if err := json.Unmarshal(j.Opts, &opts); err != nil {
				t.Fatal(err)
			}
			opts[tc.key] = json.RawMessage(tc.value)
			if j.Opts, err = json.Marshal(opts); err != nil {
				t.Fatal(err)
			}
			j.Epochs++ // a Resume that accepted the journal would train one more epoch
			if err := ckpt.WriteJournal(nil, jpath, j); err != nil {
				t.Fatal(err)
			}

			sess, _, err := marius.Resume(context.Background(), ckptDir)
			if err == nil {
				sess.Close()
				t.Fatalf("Resume accepted a journal with %s: %s", tc.key, tc.value)
			}
			if !strings.Contains(err.Error(), tc.named) {
				t.Fatalf("Resume error %q does not name %s", err, tc.named)
			}
			raw, err := os.ReadFile(filepath.Join(ckptDir, "run.ckpt"))
			if err != nil || !bytes.Equal(raw, wantCkpt) {
				t.Fatalf("checkpoint disturbed by a refused resume (err=%v)", err)
			}
		})
	}
}
