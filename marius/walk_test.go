package marius_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/train"
	"repro/marius"
)

// An epoch walks only the plan visits with examples: the others are not
// staged, admitted or indexed. These tests hold the walk to rules computed
// here from the plans themselves, and its trajectory to runs that cannot
// differ by the skipping (an in-memory twin, the same plan without the
// skippable visit).

// planLog hands out its policy's plans and keeps them.
type planLog struct {
	policy.Policy
	plans []*policy.Plan
}

func (l *planLog) NewEpochPlan(rng *rand.Rand) *policy.Plan {
	pl := l.Policy.NewEpochPlan(rng)
	l.plans = append(l.plans, pl)
	return pl
}

// admissions returns, in order, the partitions each of visits brings into
// a buffer that holds resident before the first.
func admissions(resident []int, visits []policy.Visit) []int {
	var in []int
	for _, v := range visits {
		for _, p := range v.Mem {
			if !slices.Contains(resident, p) {
				in = append(in, p)
			}
		}
		resident = v.Mem
	}
	return in
}

// furthestNextUse returns the partitions a store of frames frames that
// holds held reads, in order, to load visits' sets in turn, and what it
// holds after: a missing partition takes a free frame, else the frame of
// the held partition outside the set used again furthest ahead (never is
// furthest), among equals the one released longest ago (those held at the
// start before any visit), then the lowest. This is the read-only store's
// schedule, derived here from the rule alone.
func furthestNextUse(held []int, frames int, visits []policy.Visit) (reads, after []int) {
	last := map[int]int{}
	for _, p := range held {
		last[p] = -1
	}
	next := func(p, d int) int {
		for j := d + 1; j < len(visits); j++ {
			if slices.Contains(visits[j].Mem, p) {
				return j
			}
		}
		return len(visits)
	}
	for d, v := range visits {
		for _, p := range v.Mem {
			if _, ok := last[p]; ok {
				continue
			}
			if len(last) == frames {
				victim := -1
				for q := range last {
					if slices.Contains(v.Mem, q) {
						continue
					}
					if victim < 0 || next(q, d) > next(victim, d) ||
						next(q, d) == next(victim, d) && (last[q] < last[victim] || last[q] == last[victim] && q < victim) {
						victim = q
					}
				}
				delete(last, victim)
			}
			last[p] = d
			reads = append(reads, p)
		}
		for _, p := range v.Mem {
			last[p] = d
		}
	}
	for p := range last {
		after = append(after, p)
	}
	return reads, after
}

// ncWalk returns the indices of the plan visits that make a training
// partition (one below trainParts) resident for the first time in the
// epoch: the visits with targets.
func ncWalk(pl *policy.Plan, trainParts int) []int {
	seen := map[int]bool{}
	var walk []int
	for vi, v := range pl.Visits {
		fresh := false
		for _, p := range v.Mem {
			fresh = fresh || p < trainParts && !seen[p]
			seen[p] = true
		}
		if fresh {
			walk = append(walk, vi)
		}
	}
	return walk
}

// ncWalkSession is ncDiskSession's run (P=8, c=2, training nodes in four
// partitions: NodeCache's fallback rotation) under pol, paged from disk
// under dir, or in memory when dir is "".
func ncWalkSession(t *testing.T, dir string, pol policy.Policy, depth, workers int, opts ...marius.Option) *marius.Session {
	t.Helper()
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 800, NumClasses: 4, AvgDegree: 8, FeatureDim: 8,
		Homophily: 0.8, FeatNoise: 2.0, TrainFrac: 0.5, ValidFrac: 0.1, TestFrac: 0.1,
		Seed: 43,
	})
	layout := marius.WithPartitions(8)
	if dir != "" {
		layout = marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(2))
	}
	sess, err := marius.New(marius.NodeClassification(), g, append([]marius.Option{
		marius.WithModel(marius.GraphSage), marius.WithFanouts(6, 6),
		marius.WithDim(12), marius.WithBatchSize(64), layout, marius.WithPolicyImpl(pol),
		marius.WithWorkers(workers), marius.WithPipeline(depth), marius.WithSeed(43),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// saveBytes checkpoints sess and returns the file's bytes.
func saveBytes(t *testing.T, sess *marius.Session) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "walk.ckpt")
	if err := sess.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// NC on disk under the fallback rotation: each epoch reads exactly the
// partitions the walked visits need under furthest-next-use paging of the
// store's 2c frames, carried across epochs, and trains every training
// node; losses and checkpoint equal an in-memory session under the same
// policy.
func TestWalkNCDiskReadsOnlyVisitsWithTargets(t *testing.T) {
	const epochs, c = 4, 2
	for _, geo := range [][2]int{{0, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("depth%d-workers%d", geo[0], geo[1]), func(t *testing.T) {
			probe := ncWalkSession(t, "", policy.InMemory{P: 8}, 0, 1)
			pt, numTrain := probe.Task().Source().Part, len(probe.Graph().TrainNodes)
			probe.Close()
			trainParts := (numTrain + pt.PartSize - 1) / pt.PartSize
			nodeCache := policy.NodeCache{P: 8, C: c, TrainParts: trainParts}
			plans := &planLog{Policy: nodeCache}
			reg := marius.NewMetrics()
			disk := ncWalkSession(t, t.TempDir(), plans, geo[0], geo[1], marius.WithMetrics(reg))
			defer disk.Close()
			mem := ncWalkSession(t, "", nodeCache, geo[0], geo[1])
			defer mem.Close()
			store := disk.Task().Source().Disk
			rowBytes := int64(disk.Task().Source().Nodes.Dim()) * 4

			skippedFirst := false
			var visits, walkedVisits int
			var held []int // what the store's 2c frames hold, by the oracle
			for e := 1; e <= epochs; e++ {
				st, err := disk.TrainEpoch(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				mst, err := mem.TrainEpoch(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				pl := plans.plans[len(plans.plans)-1]
				walk := ncWalk(pl, trainParts)
				walked := &policy.Plan{NumPartitions: pl.NumPartitions}
				for _, vi := range walk {
					walked.Visits = append(walked.Visits, pl.Visits[vi])
				}
				var want int64
				var reads []int
				reads, held = furthestNextUse(held, 2*c, walked.Visits)
				for _, p := range reads {
					start, end := pt.Range(p)
					want += int64(end-start) * rowBytes
				}
				switch {
				case st.Visits != len(pl.Visits) || st.Walked != len(walk) || st.Pipeline.VisitsLoaded != len(walk):
					t.Fatalf("epoch %d: visits=%d walked=%d loaded=%d, want %d, %d, %d",
						e, st.Visits, st.Walked, st.Pipeline.VisitsLoaded, len(pl.Visits), len(walk), len(walk))
				case !strings.Contains(st.String(), fmt.Sprintf(" visits=%d walked=%d ", len(pl.Visits), len(walk))):
					t.Fatalf("epoch %d line %q does not show the plan's and the walked visit counts", e, st)
				case st.IO.BytesRead != want:
					t.Fatalf("epoch %d: read %d bytes, want %d (the partitions visits %v bring in)", e, st.IO.BytesRead, want, walk)
				case st.Examples != numTrain:
					t.Fatalf("epoch %d trained %d examples, want every one of %d training nodes", e, st.Examples, numTrain)
				case math.Float64bits(st.Loss) != math.Float64bits(mst.Loss):
					t.Fatalf("epoch %d loss %v on disk, %v in memory", e, st.Loss, mst.Loss)
				}
				if got, want := store.Resident(), slices.Sorted(slices.Values(walked.Visits[len(walk)-1].Mem)); !slices.Equal(got, want) {
					t.Fatalf("epoch %d ended with %v resident, want the last walked visit's %v", e, got, want)
				}
				t.Logf("epoch %d: walked visits %v of %d, read partitions %v (%d bytes)", e, walk, len(pl.Visits), reads, st.IO.BytesRead)
				skippedFirst = skippedFirst || walk[0] != 0
				visits, walkedVisits = visits+len(pl.Visits), walkedVisits+len(walk)
			}
			var prom strings.Builder
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("train_visits_total %d\n", visits),
				fmt.Sprintf("train_visits_walked_total %d\n", walkedVisits),
			} {
				if !strings.Contains(prom.String(), want) {
					t.Errorf("/metrics lacks %q", want)
				}
			}
			// The fixture must reach the case the checks above guard: an
			// epoch whose first plan visit is skipped (the epoch still
			// starts: done is cleared).
			if !skippedFirst {
				t.Fatal("fixture lost its coverage: no epoch skipped plan visit 0")
			}
			if d, m := saveBytes(t, disk), saveBytes(t, mem); !slices.Equal(d, m) {
				t.Fatal("disk and in-memory checkpoints differ")
			}
		})
	}
}

// appendBucketless adds one visit without buckets to every plan, over
// partitions its last visit does not hold: a visit that would cost a full
// buffer of loads if it were walked. Appending leaves the earlier visits'
// seeds as they were, since they are drawn in plan order.
type appendBucketless struct{ policy.Policy }

func (a appendBucketless) NewEpochPlan(rng *rand.Rand) *policy.Plan {
	pl := a.Policy.NewEpochPlan(rng)
	last := pl.Visits[len(pl.Visits)-1].Mem
	var mem []int
	for p := 0; p < pl.NumPartitions && len(mem) < len(last); p++ {
		if !slices.Contains(last, p) {
			mem = append(mem, p)
		}
	}
	pl.Visits = append(pl.Visits, policy.Visit{Mem: mem})
	return pl
}

// lpWalkSession is lpDiskSession's run under pol.
func lpWalkSession(t *testing.T, pol policy.Policy) *marius.Session {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 900, NumRelations: 6, NumEdges: 9000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 41,
	})
	sess, err := marius.New(marius.LinkPrediction(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(6),
		marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
		marius.WithDisk(t.TempDir(), marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)),
		marius.WithPolicyImpl(pol), marius.WithWorkers(2), marius.WithPipeline(2), marius.WithSeed(41),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// LP: a bucketless visit appended to every COMET plan is never staged or
// admitted, and the run's losses and checkpoint equal the plain COMET
// run's. Which reads an admission needs depends on whether the write-back
// of an evicted partition has landed, so the loads are counted as
// admissions, and the bytes bounded by them.
func TestWalkLPSkipsBucketlessVisit(t *testing.T) {
	comet := policy.Comet{P: 8, L: 4, C: 4}
	plans := &planLog{Policy: appendBucketless{comet}}
	wrapped := lpWalkSession(t, plans)
	defer wrapped.Close()
	plain := lpWalkSession(t, comet)
	defer plain.Close()
	src := wrapped.Task().Source()
	store := src.Disk
	rowBytes := int64(src.Nodes.Dim()+1) * 4 // representation and AdaGrad accumulator

	for e := 1; e <= 2; e++ {
		resident := store.Resident()
		st, err := wrapped.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pst, err := plain.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pl := plans.plans[len(plans.plans)-1]
		var walk []policy.Visit // the appended visit, and any COMET left bucketless
		for _, v := range pl.Visits {
			if len(v.Buckets) > 0 {
				walk = append(walk, v)
			}
		}
		in := admissions(resident, walk)
		var maxRead int64
		for _, p := range in {
			start, end := src.Part.Range(p)
			maxRead += int64(end-start) * rowBytes
		}
		admitted := st.IO.PrefetchHits + st.IO.PrefetchMisses
		switch {
		case st.Visits != len(pl.Visits) || st.Walked != len(walk) || st.Pipeline.VisitsLoaded != len(walk):
			t.Fatalf("epoch %d: visits=%d walked=%d loaded=%d, want %d, %d, %d",
				e, st.Visits, st.Walked, st.Pipeline.VisitsLoaded, len(pl.Visits), len(walk), len(walk))
		case admitted != int64(len(in)) || admitted != pst.IO.PrefetchHits+pst.IO.PrefetchMisses:
			t.Fatalf("epoch %d admitted %d partitions, plain COMET %d, want %d",
				e, admitted, pst.IO.PrefetchHits+pst.IO.PrefetchMisses, len(in))
		case st.IO.BytesRead > maxRead:
			t.Fatalf("epoch %d read %d bytes, more than the %d its admissions can need", e, st.IO.BytesRead, maxRead)
		case !reflect.DeepEqual(store.Resident(), walk[len(walk)-1].Mem):
			t.Fatalf("epoch %d ended with %v resident, want the last bucketed visit's %v", e, store.Resident(), walk[len(walk)-1].Mem)
		case math.Float64bits(st.Loss) != math.Float64bits(pst.Loss) || st.Batches != pst.Batches:
			t.Fatalf("epoch %d: loss %v over %d batches, plain COMET %v over %d", e, st.Loss, st.Batches, pst.Loss, pst.Batches)
		}
	}
	if w, p := saveBytes(t, wrapped), saveBytes(t, plain); !slices.Equal(w, p) {
		t.Fatal("checkpoint differs from the plain COMET run's")
	}
}

// noExamples plans visits that carry no buckets.
type noExamples struct{}

func (noExamples) Name() string { return "no-examples" }

func (noExamples) NewEpochPlan(*rand.Rand) *policy.Plan {
	return &policy.Plan{NumPartitions: 8, Visits: []policy.Visit{{Mem: []int{0, 1, 2, 3}}, {Mem: []int{4, 5, 6, 7}}}}
}

// An epoch whose plan has no visit with examples completes, trains
// nothing and reads nothing.
func TestWalkEmptyEpochReadsNothing(t *testing.T) {
	sess := lpWalkSession(t, noExamples{})
	defer sess.Close()
	st, err := sess.TrainEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Batches != 0 || st.Visits != 2 || st.Walked != 0 || st.Pipeline.VisitsLoaded != 0 {
		t.Fatalf("empty epoch: %v, %+v", st, st.Pipeline)
	}
	if st.IO != (train.EpochStats{}).IO || len(sess.Task().Source().Disk.Resident()) != 0 {
		t.Fatalf("empty epoch touched the buffer: %+v, resident %v", st.IO, sess.Task().Source().Disk.Resident())
	}
}
