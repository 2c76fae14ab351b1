package cpq

import (
	"context"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/shard"
	"repro/internal/sortx"
)

// Pair is one closest-pair result.
type Pair = core.Pair

// Stats reports the cost of a query; Stats.Accesses() is the paper's disk
// access count.
type Stats = core.Stats

// Algorithm selects one of the paper's five CPQ algorithms.
type Algorithm = core.Algorithm

// The five algorithms of Section 3.
const (
	// NaiveAlgorithm recurses with no pruning (correctness baseline).
	NaiveAlgorithm = core.Naive
	// ExhaustiveAlgorithm (EXH) prunes on MINMINDIST > T.
	ExhaustiveAlgorithm = core.Exhaustive
	// SimpleAlgorithm (SIM) additionally tightens T via MINMAXDIST.
	SimpleAlgorithm = core.Simple
	// SortedDistancesAlgorithm (STD) additionally sorts candidates by
	// ascending MINMINDIST.
	SortedDistancesAlgorithm = core.SortedDistances
	// HeapAlgorithm (HEAP) is the iterative algorithm on a global
	// min-heap of node pairs. It is the default: the paper found it (with
	// STD) the most robust across configurations.
	HeapAlgorithm = core.Heap
)

// TieStrategy breaks MINMINDIST ties in STD and HEAP (paper Section 3.6).
type TieStrategy = core.TieStrategy

// Tie strategies T1-T5; T1 is the paper's winner and the default.
const (
	TieNone = core.TieNone
	Tie1    = core.Tie1
	Tie2    = core.Tie2
	Tie3    = core.Tie3
	Tie4    = core.Tie4
	Tie5    = core.Tie5
)

// HeightStrategy treats trees of different heights (paper Section 3.7).
type HeightStrategy = core.HeightStrategy

// Height strategies; FixAtRoot is the paper's recommendation and the
// default.
const (
	FixAtRoot   = core.FixAtRoot
	FixAtLeaves = core.FixAtLeaves
)

// SortMethod selects STD's sorting algorithm (paper footnote 2).
type SortMethod = sortx.Method

// The six candidate sorts; MergeSort is the authors' choice and default.
const (
	MergeSort     = sortx.Merge
	QuickSort     = sortx.Quick
	HeapSort      = sortx.Heap
	InsertionSort = sortx.Insertion
	SelectionSort = sortx.Selection
	BubbleSort    = sortx.Bubble
)

// LeafScan selects how leaf pairs are scanned for candidate point pairs.
type LeafScan = core.LeafScan

// Leaf scanning strategies; the plane-sweep scan is the default and the
// brute scan reproduces the paper's original all-pairs CP3.
const (
	LeafScanSweep = core.LeafScanSweep
	LeafScanBrute = core.LeafScanBrute
)

// KPruning selects the K>1 pruning bound (paper Section 3.8).
type KPruning = core.KPruning

// K-pruning rules; KPruneMaxMax (the technical report's MAXMAXDIST rule)
// is the default.
const (
	KPruneMaxMax  = core.KPruneMaxMax
	KPruneHeapTop = core.KPruneHeapTop
)

// Metric is a Minkowski (L_p) distance metric. The zero value is the
// Euclidean metric, the paper's default; Section 2.1 notes the methods
// adapt to any Minkowski metric, and this implementation does.
type Metric = geom.Metric

// Euclidean returns the L2 metric (the default).
func Euclidean() Metric { return geom.L2() }

// Manhattan returns the L1 metric.
func Manhattan() Metric { return geom.L1() }

// Chebyshev returns the L-infinity metric.
func Chebyshev() Metric { return geom.LInf() }

// Minkowski returns the L_p metric for p >= 1.
func Minkowski(p float64) (Metric, error) { return geom.Lp(p) }

// queryConfig is the facade-level query configuration: the engine options
// plus what lives above the engine — the scatter-gather knobs (tile
// count, transport) and the consumers of the per-query cost report
// (explain capture, slow-query log; the metric set rides in core.Metrics
// because the engine also samples worker utilization into it).
type queryConfig struct {
	core      core.Options
	shards    int
	transport shard.Transport
	capture   *explain.Capture
	slowLog   *obs.SlowQueryLog
}

// QueryOption tunes a closest-pair query.
type QueryOption func(*queryConfig)

// WithAlgorithm selects the CPQ algorithm (default HeapAlgorithm).
func WithAlgorithm(a Algorithm) QueryOption {
	return func(o *queryConfig) { o.core.Algorithm = a }
}

// WithTieStrategy selects the tie-break strategy (default Tie1).
func WithTieStrategy(t TieStrategy) QueryOption {
	return func(o *queryConfig) { o.core.Tie = t }
}

// WithHeightStrategy selects the different-heights treatment
// (default FixAtRoot).
func WithHeightStrategy(h HeightStrategy) QueryOption {
	return func(o *queryConfig) { o.core.Height = h }
}

// WithSortMethod selects STD's sorting algorithm (default MergeSort).
func WithSortMethod(m SortMethod) QueryOption {
	return func(o *queryConfig) { o.core.Sort = m }
}

// WithKPruning selects the K>1 pruning rule (default KPruneMaxMax).
func WithKPruning(k KPruning) QueryOption {
	return func(o *queryConfig) { o.core.KPrune = k }
}

// WithLeafScan selects the leaf-pair scanning strategy (default
// LeafScanSweep). Both strategies produce the same result set; LeafScanBrute
// evaluates all entry pairs of two leaves (the paper's CP3), while
// LeafScanSweep plane-sweeps them and skips pairs whose x distance already
// exceeds the pruning bound. The difference shows up in
// Stats.PointPairsCompared.
func WithLeafScan(l LeafScan) QueryOption {
	return func(o *queryConfig) { o.core.LeafScan = l }
}

// WithMetric selects the distance metric (default Euclidean).
func WithMetric(m Metric) QueryOption {
	return func(o *queryConfig) { o.core.Metric = m }
}

// WithParallelism runs the HEAP algorithm with n worker goroutines over a
// shared frontier with an atomically tightened pruning bound. n = 1 (the
// default) is the paper's sequential algorithm; n <= 0 selects
// runtime.GOMAXPROCS(0). Parallel runs return the same K distances as
// sequential ones (under distance ties the pair set is an equally valid
// instance), but disk access counts — the paper's cost metric — may vary
// slightly from run to run because the traversal order depends on
// goroutine scheduling. The recursive algorithms ignore the knob. Pair
// WithParallelism with WithBufferShards on the indexes so concurrent page
// reads do not serialize on one buffer-pool mutex.
func WithParallelism(n int) QueryOption {
	return func(o *queryConfig) {
		if n <= 0 {
			o.core.Parallelism = core.AutoParallelism
		} else {
			o.core.Parallelism = n
		}
	}
}

// ShardTransport runs the shard-pair joins of a sharded query (see
// WithShards). The in-process transport is the default; a custom
// implementation can carry the same call over a wire protocol to remote
// shard holders. Implementations must be safe for concurrent use.
type ShardTransport = shard.Transport

// InProcTransport returns the in-process shard transport (the default):
// shard-pair joins run as ordinary engine calls in this process.
func InProcTransport() ShardTransport { return shard.InProc{} }

// WithShards runs the bichromatic queries (ClosestPair, KClosestPairs)
// as scatter-gather over t spatial tiles: both point sets are split by
// shared STR-order quantile boundaries, each tile gets its own R-tree
// pair on dedicated buffer pools, tile pairs whose MINMINDIST exceeds
// the current bound are pruned whole, and all in-flight tile joins share
// one broadcast tighten-only bound. Results are bit-identical (distances
// and tie order) to the unsharded query. t <= 1 (the default) keeps the
// monolithic join; the self-, semi- and range variants ignore the knob.
//
// Sharding pays off when tile-level pruning can skip most of the T^2
// tile pairs — clustered data, or K-th distances far below the tile
// side. The partitioning cost (a full re-bulk-load of both sets) is paid
// per query, so the knob targets one-shot large joins, not repeated
// queries over a prebuilt index.
func WithShards(t int) QueryOption {
	return func(o *queryConfig) { o.shards = t }
}

// WithShardTransport selects the transport that carries shard-pair joins
// (default in-process). Only meaningful together with WithShards.
func WithShardTransport(t ShardTransport) QueryOption {
	return func(o *queryConfig) { o.transport = t }
}

func buildConfig(opts []QueryOption) queryConfig {
	c := queryConfig{core: core.DefaultOptions(core.Heap)}
	for _, f := range opts {
		f(&c)
	}
	return c
}

// buildPlainConfig resolves the options of the query variants that never
// shard and take no explain capture (self, semi, range): WithShards and
// WithExplain do not apply to them.
func buildPlainConfig(opts []QueryOption) queryConfig {
	c := buildConfig(opts)
	c.shards, c.capture = 0, nil
	return c
}

// observed reports whether a consumer of the per-query cost report is
// attached. Without one the facade takes no timestamps and builds no
// report.
func (c *queryConfig) observed() bool {
	return c.core.Metrics != nil || c.slowLog != nil || c.capture != nil
}

// start returns the query's start time, or the zero time when nothing
// will read it.
func (c *queryConfig) start() time.Time {
	if !c.observed() {
		return time.Time{}
	}
	return time.Now()
}

// label renders the query's report label: the engine's QueryLabel,
// prefixed with the query shape ("self", ...) and suffixed with the tile
// count of a sharded run, so slow-log aggregates never mix shapes. Shapes
// without a K ("semi", "range") are labelled by the shape alone.
func (c *queryConfig) label(shape string, k int) string {
	if k <= 0 {
		return shape
	}
	l := core.QueryLabel(c.core, k)
	if shape != "" {
		l = shape + " " + l
	}
	if c.shards > 1 {
		l += " shards=" + strconv.Itoa(c.shards)
	}
	return l
}

// report is the one report step of every facade query: it builds the
// query's cost report once (core.NewQueryReport) and feeds it to the
// attached consumers — the explain capture's result, the metric set and
// the slow-query log, whose line embeds the explain snapshot when a
// capture is attached. A no-op when nothing is attached.
func (c *queryConfig) report(shape string, k int, started time.Time, pairs []Pair, stats Stats, err error) {
	if !c.observed() {
		return
	}
	elapsed := time.Since(started)
	r := core.NewQueryReport(c.label(shape, k), c.core, pairs, stats, elapsed, err)
	if ec := c.capture; ec != nil && err == nil {
		ec.SetResult(elapsed.Nanoseconds(), stats.ExplainStats(), r.Results, r.KthDistance)
		if c.slowLog != nil {
			if raw, jerr := ec.Snapshot().JSON(); jerr == nil {
				r.Explain = raw
			}
		}
	}
	c.core.Metrics.Record(r)
	c.slowLog.Record(r)
}

// runKCPQ is the one bichromatic K-CPQ runner behind ClosestPair,
// KClosestPairs and Explain. It wires an attached explain capture in as
// the query's tracer (teeing any user tracer) and records the plan,
// routes the query to the monolithic join or the scatter-gather executor,
// and hands the outcome to the report step.
func runKCPQ(ctx context.Context, p, q *Index, k int, cfg queryConfig) ([]Pair, Stats, error) {
	if ec := cfg.capture; ec != nil {
		ec.SetTee(cfg.core.Tracer)
		cfg.core.Tracer = ec
		ec.SetPlan(explain.Plan{
			Label:     cfg.label("", k),
			Algorithm: cfg.core.Algorithm.String(),
			K:         k,
			Workers:   cfg.core.Workers(),
			LeafScan:  cfg.core.LeafScan.String(),
		})
	}
	started := cfg.start()
	var pairs []Pair
	var stats Stats
	var err error
	if cfg.shards > 1 {
		var res shard.Result
		res, err = shard.KClosestPairsContext(ctx, p.tree, q.tree, k, cfg.core,
			shard.Config{Tiles: cfg.shards, Capture: cfg.capture}, cfg.transport)
		pairs, stats = res.Pairs, res.Stats
	} else {
		pairs, stats, err = core.KClosestPairsContext(ctx, p.tree, q.tree, k, cfg.core)
		if cfg.capture != nil {
			cfg.capture.Phase("join", time.Since(started).Nanoseconds())
		}
	}
	cfg.report("", k, started, pairs, stats, err)
	return pairs, stats, err
}

// ClosestPair returns the closest pair between the two indexed point sets
// (the paper's 1-CPQ). It is the non-cancellable shim over
// ClosestPairContext.
func ClosestPair(p, q *Index, opts ...QueryOption) (Pair, Stats, error) {
	return ClosestPairContext(context.Background(), p, q, opts...)
}

// ClosestPairContext is ClosestPair under a context: a deadline or cancel
// interrupts the traversal within a bounded number of steps, releases all
// buffer-pool pins, joins all worker goroutines and returns ctx.Err().
// When the context never fires the results, paper counters and disk
// accesses are identical to the context-free call.
func ClosestPairContext(ctx context.Context, p, q *Index, opts ...QueryOption) (Pair, Stats, error) {
	pairs, stats, err := runKCPQ(ctx, p, q, 1, buildConfig(opts))
	return firstPair(pairs, stats, err)
}

// firstPair unwraps a K = 1 answer.
func firstPair(pairs []Pair, stats Stats, err error) (Pair, Stats, error) {
	if err != nil {
		return Pair{}, stats, err
	}
	if len(pairs) == 0 {
		return Pair{}, stats, core.ErrEmptyInput
	}
	return pairs[0], stats, nil
}

// KClosestPairs returns the k closest pairs between the two indexed point
// sets in ascending distance order (the paper's K-CPQ). If fewer than k
// pairs exist, all are returned. It is the non-cancellable shim over
// KClosestPairsContext.
func KClosestPairs(p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return KClosestPairsContext(context.Background(), p, q, k, opts...)
}

// KClosestPairsContext is KClosestPairs under a context; see
// ClosestPairContext for the cancellation contract.
func KClosestPairsContext(ctx context.Context, p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return runKCPQ(ctx, p, q, k, buildConfig(opts))
}

// SelfClosestPair returns the closest pair of distinct points within one
// index (the paper's self-CPQ future-work variant). It is the
// non-cancellable shim over SelfClosestPairContext.
func SelfClosestPair(p *Index, opts ...QueryOption) (Pair, Stats, error) {
	return SelfClosestPairContext(context.Background(), p, opts...)
}

// SelfClosestPairContext is SelfClosestPair under a context; see
// ClosestPairContext for the cancellation contract.
func SelfClosestPairContext(ctx context.Context, p *Index, opts ...QueryOption) (Pair, Stats, error) {
	return firstPair(SelfKClosestPairsContext(ctx, p, 1, opts...))
}

// SelfKClosestPairs returns the k closest unordered pairs of distinct
// points within one index. It is the non-cancellable shim over
// SelfKClosestPairsContext.
func SelfKClosestPairs(p *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return SelfKClosestPairsContext(context.Background(), p, k, opts...)
}

// SelfKClosestPairsContext is SelfKClosestPairs under a context; see
// ClosestPairContext for the cancellation contract.
func SelfKClosestPairsContext(ctx context.Context, p *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	cfg := buildPlainConfig(opts)
	started := cfg.start()
	pairs, stats, err := core.SelfKClosestPairsContext(ctx, p.tree, k, cfg.core)
	cfg.report("self", k, started, pairs, stats, err)
	return pairs, stats, err
}

// SemiClosestPairs returns, for every point of p, its nearest point in q
// (the paper's semi-CPQ future-work variant), sorted by ascending
// distance. It is the non-cancellable shim over SemiClosestPairsContext.
func SemiClosestPairs(p, q *Index, opts ...QueryOption) ([]Pair, Stats, error) {
	return SemiClosestPairsContext(context.Background(), p, q, opts...)
}

// SemiClosestPairsContext is SemiClosestPairs under a context; see
// ClosestPairContext for the cancellation contract.
func SemiClosestPairsContext(ctx context.Context, p, q *Index, opts ...QueryOption) ([]Pair, Stats, error) {
	cfg := buildPlainConfig(opts)
	started := cfg.start()
	pairs, stats, err := core.SemiClosestPairsContext(ctx, p.tree, q.tree, cfg.core)
	cfg.report("semi", 0, started, pairs, stats, err)
	return pairs, stats, err
}

// SemiClosestPairsBatched computes the same result as SemiClosestPairs
// with a batched traversal: one best-first search over q per leaf of p
// serves all of the leaf's points at once, usually at a fraction of the
// disk accesses. It is the non-cancellable shim over
// SemiClosestPairsBatchedContext.
func SemiClosestPairsBatched(p, q *Index, opts ...QueryOption) ([]Pair, Stats, error) {
	return SemiClosestPairsBatchedContext(context.Background(), p, q, opts...)
}

// SemiClosestPairsBatchedContext is SemiClosestPairsBatched under a
// context; see ClosestPairContext for the cancellation contract.
func SemiClosestPairsBatchedContext(ctx context.Context, p, q *Index, opts ...QueryOption) ([]Pair, Stats, error) {
	cfg := buildPlainConfig(opts)
	started := cfg.start()
	pairs, stats, err := core.SemiClosestPairsBatchedContext(ctx, p.tree, q.tree, cfg.core)
	cfg.report("semi-batched", 0, started, pairs, stats, err)
	return pairs, stats, err
}

// Traversal selects the incremental join's expansion policy (Hjaltason &
// Samet).
type Traversal = incremental.Traversal

// The three traversal policies of the incremental baseline.
const (
	BasicTraversal        = incremental.Basic
	EvenTraversal         = incremental.Even
	SimultaneousTraversal = incremental.Simultaneous
)

// JoinStats reports the cost of an incremental join.
type JoinStats = incremental.Stats

// JoinIterator streams closest pairs in ascending distance order.
type JoinIterator struct {
	it *incremental.Iterator
}

// JoinOption tunes an incremental join.
type JoinOption func(*incremental.Options)

// WithTraversal selects the expansion policy (default BasicTraversal).
func WithTraversal(t Traversal) JoinOption {
	return func(o *incremental.Options) { o.Traversal = t }
}

// WithMaxPairs bounds the number of pairs the join will produce, enabling
// the K-bounded queue pruning of the modified algorithm in Hjaltason &
// Samet.
func WithMaxPairs(k int) JoinOption {
	return func(o *incremental.Options) { o.MaxK = k }
}

// WithJoinMetric selects the incremental join's distance metric
// (default Euclidean).
func WithJoinMetric(m Metric) JoinOption {
	return func(o *incremental.Options) { o.Metric = m }
}

// NewIncrementalJoin starts an incremental distance join between the two
// indexes.
func NewIncrementalJoin(p, q *Index, opts ...JoinOption) (*JoinIterator, error) {
	var o incremental.Options
	for _, f := range opts {
		f(&o)
	}
	it, err := incremental.New(p.tree, q.tree, o)
	if err != nil {
		return nil, err
	}
	return &JoinIterator{it: it}, nil
}

// Next returns the next closest pair; ok is false when the join is
// exhausted.
func (j *JoinIterator) Next() (pair Pair, ok bool, err error) {
	return j.it.Next()
}

// Stats returns the join's cost counters so far.
func (j *JoinIterator) Stats() JoinStats { return j.it.Stats() }
