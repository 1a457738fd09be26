package marius_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/marius"
)

// lpDiskRWSession is the lp-disk-rw benchmark's layout at test size: a
// learnable table scored by ComplEx over P = 16 partitions, COMET with
// L = 8 and c = 4, paged from disk under dir, or in memory when dir is "";
// extra options are applied last.
func lpDiskRWSession(t *testing.T, dir string, pol policy.Policy, depth, workers int, extra ...marius.Option) *marius.Session {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 1600, NumRelations: 8, NumEdges: 12000,
		ZipfS: 1.2, ValidFrac: 0.02, TestFrac: 0.02, Seed: 44,
	})
	layout := marius.WithPartitions(16)
	if dir != "" {
		layout = marius.WithDisk(dir, marius.Partitions(16), marius.Capacity(4), marius.LogicalPartitions(8))
	}
	sess, err := marius.New(marius.LinkPrediction(), g, append([]marius.Option{
		marius.WithModel(marius.GraphSage), marius.WithFanouts(6), marius.WithDecoder(marius.ComplEx),
		marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(32), layout,
		marius.WithPolicyImpl(pol), marius.WithWorkers(workers), marius.WithPipeline(depth), marius.WithSeed(44),
	}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestScheduleLPDiskRW holds the compiled partition IO of an
// lp-disk-rw-shaped session: the bytes each epoch reads and writes are the
// same at pipeline depth 0 and 2, at 1 and 4 workers and on a repeated
// run, since the store derives them from the plan alone; each epoch reads
// at most three quarters of the partition loads the plan's visit sequence
// makes (the buffer of c slots alone); and losses and checkpoint equal
// an in-memory session's under the same policy. The edge bytes each epoch
// reads are the same at every geometry too, and from the second epoch on
// at most maxEdgeBytes: the training edges come from the visit's
// fragments, not from a read of their own.
func TestScheduleLPDiskRW(t *testing.T) {
	// 1.1 x 12 000 edges x 12 B. The edge file holds the 11 520 training
	// edges (138 240 B); epochs 2 and 3 read 154 776 and 155 136 B, one
	// pass over the file plus the 25–26 buckets whose fragments the LRU
	// cache of (2c)² + 8 buckets drops between two visits that both need
	// them. Reading the training buckets a second time, beside the
	// fragments, read 293 016 B in epoch 2.
	const maxEdgeBytes = 158_400
	const epochs = 3
	comet := policy.Comet{P: 16, L: 8, C: 4}
	mem := lpDiskRWSession(t, "", comet, 0, 1)
	defer mem.Close()
	var memLoss []float64
	for range epochs {
		st, err := mem.TrainEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		memLoss = append(memLoss, st.Loss)
	}
	memCkpt := saveBytes(t, mem)

	var read, written, edgeRead []int64
	for i, geo := range [][2]int{{0, 1}, {0, 4}, {2, 1}, {2, 4}, {2, 4}} {
		t.Run(fmt.Sprintf("run%d-depth%d-workers%d", i, geo[0], geo[1]), func(t *testing.T) {
			plans := &planLog{Policy: comet}
			sess := lpDiskRWSession(t, t.TempDir(), plans, geo[0], geo[1])
			defer sess.Close()
			src := sess.Task().Source()
			partBytes := int64(src.Part.PartSize) * int64(src.Nodes.Dim()+1) * 4 // rows and accumulators
			var fileBytes int64
			for i := range src.Part.NumPartitions {
				for j := range src.Part.NumPartitions {
					fileBytes += int64(src.Edges.BucketLen(i, j)) * storage.EdgeBytes
				}
			}
			var r, w, er []int64
			for e := range epochs {
				edges0 := src.Edges.Stats().Snapshot().BytesRead
				st, err := sess.TrainEpoch(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				edgeBytes := src.Edges.Stats().Snapshot().BytesRead - edges0
				t.Logf("epoch %d: read %d edge bytes of a %d-byte edge file", e+1, edgeBytes, fileBytes)
				if e > 0 && edgeBytes > maxEdgeBytes {
					t.Fatalf("epoch %d read %d edge bytes, over %d", e+1, edgeBytes, maxEdgeBytes)
				}
				loads := plans.plans[e].TotalLoads()
				parts := st.IO.BytesRead / partBytes
				t.Logf("epoch %d: read %d partitions, wrote %d, of %d plan loads", e+1, parts, st.IO.BytesWritten/partBytes, loads)
				switch {
				case math.Float64bits(st.Loss) != math.Float64bits(memLoss[e]):
					t.Fatalf("epoch %d loss %v on disk, %v in memory", e+1, st.Loss, memLoss[e])
				case st.IO.BytesRead%partBytes != 0 || 4*parts > 3*int64(loads):
					t.Fatalf("epoch %d read %d bytes (%d partitions), over 3/4 of the plan's %d loads", e+1, st.IO.BytesRead, parts, loads)
				}
				r, w, er = append(r, st.IO.BytesRead), append(w, st.IO.BytesWritten), append(er, edgeBytes)
			}
			if read == nil {
				read, written, edgeRead = r, w, er
			} else if !slices.Equal(r, read) || !slices.Equal(w, written) || !slices.Equal(er, edgeRead) {
				t.Fatalf("read %v and wrote %v node bytes and read %v edge bytes per epoch, the first run %v, %v and %v", r, w, er, read, written, edgeRead)
			}
			if !slices.Equal(saveBytes(t, sess), memCkpt) {
				t.Fatal("checkpoint differs from the in-memory session's")
			}
		})
	}
}

// slowNodeWrites delays each write to the node table file once armed, so
// an epoch's last write-backs are still in flight after its last batch.
type slowNodeWrites struct {
	fault.FS
	armed *atomic.Bool
}

func (s slowNodeWrites) Create(name string) (fault.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowNodeFile{f, s.armed}, nil
}

type slowNodeFile struct {
	fault.File
	armed *atomic.Bool
}

func (f slowNodeFile) WriteAt(p []byte, off int64) (int, error) {
	if f.armed.Load() && filepath.Base(f.Name()) == "nodes.bin" {
		time.Sleep(10 * time.Millisecond)
	}
	return f.File.WriteAt(p, off)
}

// TestWriteBehindEpochOwnsItsIO: with write-behind eviction a swap's
// write-back may land after the LoadSet that needed its frame, even after
// the epoch's last batch has computed; TrainEpoch still counts every byte
// its visits read and wrote in that epoch's IO, so the epochs' IO adds up
// to the store's counters, at every pipeline geometry.
func TestWriteBehindEpochOwnsItsIO(t *testing.T) {
	comet := policy.Comet{P: 16, L: 8, C: 4}
	for _, geo := range [][2]int{{0, 1}, {2, 4}} {
		armed := new(atomic.Bool)
		sess := lpDiskRWSession(t, t.TempDir(), comet, geo[0], geo[1], marius.WithFaults(slowNodeWrites{fault.OS, armed}))
		disk := sess.Task().Source().Disk
		armed.Store(true)
		var read, written int64
		for range 2 {
			st, err := sess.TrainEpoch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			read, written = read+st.IO.BytesRead, written+st.IO.BytesWritten
			if io := disk.Stats().Snapshot(); io.BytesRead != read || io.BytesWritten != written {
				t.Fatalf("depth %d workers %d: epochs counted %d bytes read and %d written, the store %d and %d",
					geo[0], geo[1], read, written, io.BytesRead, io.BytesWritten)
			}
		}
		if written == 0 {
			t.Fatalf("depth %d workers %d: no write-back to check", geo[0], geo[1])
		}
		armed.Store(false)
		sess.Close()
	}
}
