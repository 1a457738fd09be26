package marius

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/decoder"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/train"
)

// StorageMode selects where base representations live.
type StorageMode int

const (
	// InMemory keeps the whole graph in CPU memory (M-GNN_Mem).
	InMemory StorageMode = iota
	// OnDisk pages partitions through a buffer (M-GNN_Disk).
	OnDisk
)

// ModelKind selects the encoder architecture.
type ModelKind int

const (
	// GraphSage is the mean-aggregation GraphSage GNN (paper default).
	GraphSage ModelKind = iota
	// GAT is the graph attention network.
	GAT
	// GCN is a shared-weight graph convolution.
	GCN
	// DistMultOnly trains decoder-only knowledge-graph embeddings with no
	// GNN encoder (the model class supported by Marius).
	DistMultOnly
)

// kindName maps a ModelKind to the stable name checkpoints record in
// their ModelMeta, so a forward-only loader can rebuild the encoder
// without the options API.
func (m ModelKind) kindName() string {
	switch m {
	case GAT:
		return ckpt.KindGAT
	case GCN:
		return ckpt.KindGCN
	case DistMultOnly:
		return ckpt.KindDistMult
	default:
		return ckpt.KindSage
	}
}

// DecoderKind selects the link-prediction scoring function. All three
// decoders train, evaluate and serve through the same interface and the
// same fused scoring kernel; they differ only in how a (source, relation)
// pair folds into a query vector.
type DecoderKind int

const (
	// DistMult scores <e_s ∘ w_r, e_d> (the paper's decoder; default).
	DistMult DecoderKind = iota
	// ComplEx scores Re(<e_s, w_r, conj(e_d)>) over split-half complex
	// embeddings (first dim/2 real, last dim/2 imaginary); it requires an
	// even dimension and, unlike DistMult, is not symmetric in s and d.
	ComplEx
	// TransE scores -||e_s + w_r - e_d||² (translational distance).
	TransE
)

// kindName maps a DecoderKind to the stable name checkpoints and serving
// snapshots record.
func (d DecoderKind) kindName() string {
	switch d {
	case ComplEx:
		return decoder.KindComplEx
	case TransE:
		return decoder.KindTransE
	default:
		return decoder.KindDistMult
	}
}

// String implements fmt.Stringer.
func (d DecoderKind) String() string { return d.kindName() }

// PolicyKind selects the disk replacement policy for link prediction.
type PolicyKind int

const (
	// COMET is MariusGNN's two-level randomized policy (paper §5.1).
	COMET PolicyKind = iota
	// BETA is the greedy Marius policy reimplemented for comparison.
	BETA
)

// Paper defaults (§7.3 and the training setup of §7.1), the single source
// of truth shared by the options API and the cmd/mariusgnn flag defaults.
const (
	DefaultDim        = 32
	DefaultBatchSize  = 1024
	DefaultNegatives  = 500 // LP negatives per batch, as in §7.3
	DefaultLR         = float32(0.01)
	DefaultEmbLR      = float32(0.1)
	DefaultCPUBytes   = int64(1 << 30)
	DefaultBlockBytes = int64(512 << 10)
	DefaultWorkers    = 4
	DefaultNCLayers   = 3 // node classification (Papers100M setting)
	DefaultLPLayers   = 1 // link prediction
)

// DefaultLayers returns the paper-default GNN depth for a task name
// ("nc" or "lp").
func DefaultLayers(task string) int {
	if task == TaskNC {
		return DefaultNCLayers
	}
	return DefaultLPLayers
}

// DefaultFanouts returns the paper-default per-layer fanouts for a task,
// ordered away from the targets: 30/20/10 for NC (padded with 10 beyond
// three layers), 20 per layer for LP.
func DefaultFanouts(task string, layers int) []int {
	if task == TaskNC {
		all := []int{30, 20, 10}
		f := append([]int(nil), all[:min(layers, 3)]...)
		for len(f) < layers {
			f = append(f, 10)
		}
		return f
	}
	f := make([]int, layers)
	for i := range f {
		f[i] = 20
	}
	return f
}

// Typed option/validation errors, matchable with errors.Is through the
// *OptionError wrapper New returns.
var (
	// ErrMissingDir is returned when disk storage is requested without a
	// directory.
	ErrMissingDir = errors.New("disk storage requires a directory")
	// ErrBadValue is returned for non-positive sizes, depths and rates.
	ErrBadValue = errors.New("value out of range")
	// ErrBadBuffer is returned for partition/buffer-capacity combinations
	// the storage layer cannot honor (e.g. capacity exceeding partitions).
	ErrBadBuffer = errors.New("invalid partition/buffer configuration")
	// ErrTaskGraph is returned when the graph lacks the inputs the task
	// needs (e.g. node classification without features or labels).
	ErrTaskGraph = errors.New("graph does not satisfy task requirements")
	// ErrTaskMismatch is returned when a checkpoint is restored into a
	// session running a different task or model shape.
	ErrTaskMismatch = errors.New("checkpoint does not match session")
	// ErrCheckpointMismatch is returned when a checkpoint's recorded
	// model shape or dataset provenance contradicts what it is loaded
	// against (wrong dim, layers, node count, ...); the message names
	// the offending field. It is the same sentinel the inference loader
	// (marius.LoadForInference / internal/serve) wraps, so callers can
	// match both paths with one errors.Is.
	ErrCheckpointMismatch = ckpt.ErrMismatch
	// ErrDatasetMismatch is returned by FromDataset when options
	// contradict the prepared dataset's baked-in layout (e.g. a
	// different partition count).
	ErrDatasetMismatch = errors.New("options do not match prepared dataset")
)

// OptionError reports which option (or validation step) rejected the
// configuration. It unwraps to one of the sentinel errors above.
type OptionError struct {
	Option string
	Err    error
}

func (e *OptionError) Error() string { return fmt.Sprintf("marius: %s: %v", e.Option, e.Err) }

// Unwrap implements errors.Unwrap.
func (e *OptionError) Unwrap() error { return e.Err }

func optErr(option string, err error, format string, args ...any) *OptionError {
	return &OptionError{Option: option, Err: fmt.Errorf("%w: "+format, append([]any{err}, args...)...)}
}

// Options is the fully-resolved session configuration produced by applying
// functional options over the paper defaults. Task implementations read it
// in Prepare; most callers never touch it directly.
type Options struct {
	Storage StorageMode
	Model   ModelKind
	Policy  PolicyKind
	// PolicyImpl, when non-nil, overrides Policy with an exact policy
	// instance (used by the policy-comparison experiments).
	PolicyImpl policy.Policy

	// Dir is the directory for disk-based storage.
	Dir string

	// Decoder selects the link-prediction scoring function (WithDecoder);
	// decoderSet records whether it was chosen explicitly, so resolve can
	// reject the option on tasks that have no decoder.
	Decoder    DecoderKind
	decoderSet bool
	// Relations, when non-zero, fixes the relation-table height
	// (WithRelations). 0 resolves to the graph's relation count (at
	// least 1).
	Relations int

	Dim     int
	Layers  int   // 0 resolves to the task default
	Fanouts []int // empty resolves to the task default

	BatchSize int
	Negatives int

	LR    float32
	EmbLR float32

	// Partitions (p), BufferCapacity (c), LogicalPartitions (l); 0 lets
	// the §6 auto-tuner pick them from CPUBytes/BlockBytes.
	Partitions        int
	BufferCapacity    int
	LogicalPartitions int
	CPUBytes          int64
	BlockBytes        int64

	Throttle *storage.Throttle

	Mode train.Mode
	// Workers is the batch-construction worker count and kernel fan-out;
	// PipelineDepth is how many partition visits the loader runs ahead of
	// the trainer (0 = a visit is loaded only once the previous one is
	// done).
	Workers       int
	PipelineDepth int
	Seed          int64

	// Metrics and Tracer attach observability (see WithMetrics and
	// WithTrace). Either may be nil; instrumentation never changes the
	// training trajectory.
	Metrics *Metrics
	Tracer  *Tracer

	// FS, when non-nil, routes the session's file IO (dataset reads, the
	// disk-mode node/edge stores, checkpoints and run journals) through an
	// injectable filesystem (see WithFaults). nil means the real
	// filesystem with zero overhead.
	FS fault.FS

	// dataset, when non-nil, is the opened preprocessed dataset the
	// session trains from (set by FromDataset): tasks then skip the
	// relabeling step — the ingest already applied it — and build their
	// source over the dataset's files.
	dataset *storage.Dataset
}

func defaultOptions() Options {
	return Options{
		Dim:        DefaultDim,
		BatchSize:  DefaultBatchSize,
		Negatives:  DefaultNegatives,
		LR:         DefaultLR,
		EmbLR:      DefaultEmbLR,
		CPUBytes:   DefaultCPUBytes,
		BlockBytes: DefaultBlockBytes,
		Workers:    DefaultWorkers,
	}
}

// resolve fills task-dependent defaults and cross-validates the combined
// configuration; it runs after every option has been applied.
func (o *Options) resolve(task string) error {
	if o.Layers == 0 {
		o.Layers = DefaultLayers(task)
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = DefaultFanouts(task, o.Layers)
	}
	if len(o.Fanouts) != o.Layers {
		return optErr("WithFanouts", ErrBadValue, "%d fanouts for %d layers", len(o.Fanouts), o.Layers)
	}
	if task == TaskNC {
		if o.decoderSet {
			return optErr("WithDecoder", ErrBadValue, "node classification has no decoder")
		}
		if o.Relations > 0 {
			return optErr("WithRelations", ErrBadValue, "node classification has no relation table")
		}
	}
	if o.Decoder == ComplEx && o.Dim%2 != 0 {
		return optErr("WithDecoder", ErrBadValue, "complex decoder needs an even dimension, got %d", o.Dim)
	}
	if o.Storage == OnDisk && o.Dir == "" {
		return &OptionError{Option: "WithDisk", Err: ErrMissingDir}
	}
	if o.Partitions < 0 || o.BufferCapacity < 0 || o.LogicalPartitions < 0 {
		return optErr("WithDisk", ErrBadValue, "negative partition counts")
	}
	if o.Partitions > 0 && o.BufferCapacity > o.Partitions {
		return optErr("WithDisk", ErrBadBuffer, "buffer capacity %d exceeds %d partitions",
			o.BufferCapacity, o.Partitions)
	}
	if o.Storage == OnDisk && o.Partitions > 0 && o.BufferCapacity > 0 && o.BufferCapacity < 2 {
		return optErr("WithDisk", ErrBadBuffer, "disk buffer must hold at least 2 partitions")
	}
	if o.LogicalPartitions > 0 && o.Partitions > 0 && o.Partitions%o.LogicalPartitions != 0 {
		return optErr("WithDisk", ErrBadBuffer, "logical partitions %d must divide physical %d",
			o.LogicalPartitions, o.Partitions)
	}
	return nil
}

// Option configures a Session at construction; every option validates its
// arguments eagerly and New surfaces the first failure as an *OptionError.
type Option func(*Options) error

// WithModel selects the encoder architecture.
func WithModel(m ModelKind) Option {
	return func(o *Options) error {
		if m < GraphSage || m > DistMultOnly {
			return optErr("WithModel", ErrBadValue, "unknown model kind %d", m)
		}
		o.Model = m
		return nil
	}
}

// WithDecoder selects the link-prediction scoring function (DistMult,
// ComplEx or TransE). Only valid for LinkPrediction sessions; ComplEx
// additionally requires an even dimension. The decoder kind is recorded
// in checkpoints, so restoring or serving under a different kind fails
// with an error naming the "decoder" field instead of silently scoring
// with the wrong function.
func WithDecoder(d DecoderKind) Option {
	return func(o *Options) error {
		if d < DistMult || d > TransE {
			return optErr("WithDecoder", ErrBadValue, "unknown decoder kind %d", d)
		}
		o.Decoder = d
		o.decoderSet = true
		return nil
	}
}

// WithRelations fixes the relation-table height to n. The default is the
// graph's relation count (at least 1); setting it larger reserves rows
// for relation types absent from the training split. It must not be
// smaller than the graph's relation count, and for prepared datasets it
// must equal the manifest's (the ingest already sized the table).
func WithRelations(n int) Option {
	return func(o *Options) error {
		if n <= 0 {
			return optErr("WithRelations", ErrBadValue, "relations %d", n)
		}
		o.Relations = n
		return nil
	}
}

// WithDim sets the hidden/embedding dimensionality.
func WithDim(d int) Option {
	return func(o *Options) error {
		if d <= 0 {
			return optErr("WithDim", ErrBadValue, "dim %d", d)
		}
		o.Dim = d
		return nil
	}
}

// WithLayers sets the GNN depth.
func WithLayers(n int) Option {
	return func(o *Options) error {
		if n <= 0 {
			return optErr("WithLayers", ErrBadValue, "layers %d", n)
		}
		o.Layers = n
		return nil
	}
}

// WithFanouts sets the per-layer neighbor fanouts, ordered away from the
// targets. It implies WithLayers(len(fanouts)) unless layers were set
// explicitly (in which case the lengths must agree).
func WithFanouts(fanouts ...int) Option {
	return func(o *Options) error {
		if len(fanouts) == 0 {
			return optErr("WithFanouts", ErrBadValue, "no fanouts")
		}
		for _, f := range fanouts {
			if f <= 0 {
				return optErr("WithFanouts", ErrBadValue, "fanout %d", f)
			}
		}
		o.Fanouts = append([]int(nil), fanouts...)
		if o.Layers == 0 {
			o.Layers = len(fanouts)
		}
		return nil
	}
}

// WithBatchSize sets the mini-batch size.
func WithBatchSize(n int) Option {
	return func(o *Options) error {
		if n <= 0 {
			return optErr("WithBatchSize", ErrBadValue, "batch size %d", n)
		}
		o.BatchSize = n
		return nil
	}
}

// WithNegatives sets the number of shared negatives per link-prediction
// batch.
func WithNegatives(n int) Option {
	return func(o *Options) error {
		if n <= 0 {
			return optErr("WithNegatives", ErrBadValue, "negatives %d", n)
		}
		o.Negatives = n
		return nil
	}
}

// WithLearningRates sets the dense-parameter Adam LR and the embedding
// sparse-AdaGrad LR.
func WithLearningRates(lr, embLR float32) Option {
	return func(o *Options) error {
		if lr <= 0 || embLR <= 0 {
			return optErr("WithLearningRates", ErrBadValue, "lr %g embLR %g", lr, embLR)
		}
		o.LR, o.EmbLR = lr, embLR
		return nil
	}
}

// WithWorkers sets the compute-parallelism knob: n batch-construction
// workers feed the compute stage, and the tensor kernels of the
// forward/backward pass may fan out to n goroutines. Kernels are bitwise
// deterministic at every worker count (parallelism never reorders
// floating-point sums), batches always compute in plan order with
// per-batch derived seeds, and base representations are gathered at
// compute time — so training is bit-reproducible at every worker count
// and pipeline depth (a resumed checkpoint continues the exact
// trajectory). Workers only change wall-clock overlap.
func WithWorkers(n int) Option {
	return func(o *Options) error {
		if n <= 0 {
			return optErr("WithWorkers", ErrBadValue, "workers %d", n)
		}
		o.Workers = n
		return nil
	}
}

// WithPipeline sets how far out-of-core execution overlaps. Every epoch
// runs the same three stages (visit loading, mini-batch construction,
// compute); depth is how many visits the loader may walk the policy plan
// ahead of the trainer, staging partition IO and edge buckets off the
// critical path. At depth 0 (the default) nothing runs ahead across
// visits: a visit starts loading only once the previous one has
// finished computing, and only the next visit's node partitions are
// staged meanwhile. With WithWorkers(1) as well, each batch is built
// only after the previous one has computed — the stages take turns.
//
// Depth never changes the training trajectory: batches compute in exact
// plan order with per-batch derived RNG seeds, and base representations
// are gathered at compute time, so an epoch produces the same losses
// (and, combined with the bitwise-deterministic kernels, the same
// checkpoints) at every depth and worker count. Per-epoch pipeline
// behavior is reported in EpochStats.Pipeline.
func WithPipeline(depth int) Option {
	return func(o *Options) error {
		if depth < 0 {
			return optErr("WithPipeline", ErrBadValue, "pipeline depth %d", depth)
		}
		o.PipelineDepth = depth
		return nil
	}
}

// WithSeed seeds all randomness (partitioning, plans, sampling, init).
func WithSeed(s int64) Option {
	return func(o *Options) error {
		o.Seed = s
		return nil
	}
}

// WithFaults routes the session's file IO — dataset reads, the disk-mode
// node and edge stores, checkpoints and run journals — through fsys,
// typically a fault.Injector, so robustness tests can subject a real
// training run to seeded transient errors, short IO, ENOSPC and
// hard crashes. A nil fsys restores the default (the real filesystem,
// with no wrapping and no overhead).
func WithFaults(fsys fault.FS) Option {
	return func(o *Options) error {
		o.FS = fsys
		return nil
	}
}

// WithBaseline selects the DGL/PyG-like baseline execution (per-layer
// re-sampling, per-edge aggregation, synchronous stages) for comparisons.
func WithBaseline() Option {
	return func(o *Options) error {
		o.Mode = train.ModeBaseline
		return nil
	}
}

// WithPartitions sets the number of physical partitions for in-memory
// training (disk training configures partitions through WithDisk).
func WithPartitions(p int) Option {
	return func(o *Options) error {
		if p <= 0 {
			return optErr("WithPartitions", ErrBadValue, "partitions %d", p)
		}
		o.Partitions = p
		return nil
	}
}

// WithPolicy selects the disk replacement policy kind.
func WithPolicy(k PolicyKind) Option {
	return func(o *Options) error {
		if k != COMET && k != BETA {
			return optErr("WithPolicy", ErrBadValue, "unknown policy kind %d", k)
		}
		o.Policy = k
		return nil
	}
}

// WithPolicyImpl installs an exact policy instance, bypassing the
// kind-based construction (policy-comparison experiments).
func WithPolicyImpl(p policy.Policy) Option {
	return func(o *Options) error {
		if p == nil {
			return optErr("WithPolicyImpl", ErrBadValue, "nil policy")
		}
		o.PolicyImpl = p
		return nil
	}
}

// WithAutotune sets the CPU-memory and disk-block budgets the §6
// auto-tuner uses to pick p, c and l when they are not set explicitly.
func WithAutotune(cpuBytes, blockBytes int64) Option {
	return func(o *Options) error {
		if cpuBytes <= 0 || blockBytes <= 0 {
			return optErr("WithAutotune", ErrBadValue, "cpuBytes %d blockBytes %d", cpuBytes, blockBytes)
		}
		o.CPUBytes, o.BlockBytes = cpuBytes, blockBytes
		return nil
	}
}

// DiskOption refines WithDisk.
type DiskOption func(*Options) error

// WithDisk stores base representations on disk under dir, paging them
// through a partition buffer (M-GNN_Disk). Partition counts left unset are
// chosen by the §6 auto-tuner.
func WithDisk(dir string, opts ...DiskOption) Option {
	return func(o *Options) error {
		if dir == "" {
			return &OptionError{Option: "WithDisk", Err: ErrMissingDir}
		}
		o.Storage = OnDisk
		o.Dir = dir
		for _, opt := range opts {
			if err := opt(o); err != nil {
				return err
			}
		}
		return nil
	}
}

// Partitions sets the physical partition count p.
func Partitions(p int) DiskOption {
	return func(o *Options) error {
		if p <= 0 {
			return optErr("Partitions", ErrBadValue, "partitions %d", p)
		}
		o.Partitions = p
		return nil
	}
}

// Capacity sets the partition-buffer capacity c.
func Capacity(c int) DiskOption {
	return func(o *Options) error {
		if c <= 0 {
			return optErr("Capacity", ErrBadValue, "capacity %d", c)
		}
		o.BufferCapacity = c
		return nil
	}
}

// LogicalPartitions sets the logical partition count l used by COMET.
func LogicalPartitions(l int) DiskOption {
	return func(o *Options) error {
		if l <= 0 {
			return optErr("LogicalPartitions", ErrBadValue, "logical partitions %d", l)
		}
		o.LogicalPartitions = l
		return nil
	}
}

// Throttled simulates a bandwidth-limited disk.
func Throttled(t *storage.Throttle) DiskOption {
	return func(o *Options) error {
		o.Throttle = t
		return nil
	}
}

// numRels resolves the relation-table height for a graph: WithRelations
// if set, else the graph's relation count, never below 1.
func (o *Options) numRels(g *graph.Graph) int {
	if o.Relations > 0 {
		return o.Relations
	}
	return max(g.NumRels, 1)
}

// EvalSpec is the resolved evaluation configuration produced by applying
// EvalOptions; task implementations read it in Evaluate.
type EvalSpec struct {
	// Ranking selects the ranking protocol: every held-out edge (s, r, d)
	// is ranked twice against all entities — d among candidate tails of
	// (s, r, ?), s among candidate heads of (?, r, d) — reporting MRR and
	// Hits@k. Without it, link prediction evaluates with the sampled
	// protocol (MRR against shared negatives) and node classification
	// with accuracy.
	Ranking bool
	// Filtered removes known true triples (training, validation and test
	// edges) from the candidate sets, the standard "filtered" protocol.
	Filtered bool
	// Ks lists the Hits@k cutoffs (default 1, 10).
	Ks []int
}

// EvalOption configures a single Session.Evaluate call.
type EvalOption func(*EvalSpec) error

// RankingEval selects the ranking protocol (raw candidate sets),
// reporting MRR and Hits@k at the given cutoffs (default 1, 10). Only
// link-prediction sessions support it. Results are bitwise independent
// of worker count, batch size and candidate-chunk width, and match a
// brute-force per-candidate reference exactly.
func RankingEval(ks ...int) EvalOption {
	return func(e *EvalSpec) error {
		for _, k := range ks {
			if k <= 0 {
				return optErr("RankingEval", ErrBadValue, "hits cutoff %d", k)
			}
		}
		e.Ranking = true
		if len(ks) > 0 {
			e.Ks = append([]int(nil), ks...)
		}
		return nil
	}
}

// FilteredEval selects the filtered ranking protocol: RankingEval with
// known true triples (training edges plus both held-out splits) removed
// from every candidate set, per the standard KG evaluation methodology
// (and the paper's §7 MRR reporting).
func FilteredEval() EvalOption {
	return func(e *EvalSpec) error {
		e.Ranking = true
		e.Filtered = true
		return nil
	}
}
