// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Sections 4 and 5): it builds the R*-trees for
// each workload (caching them across runs), configures the per-tree LRU
// buffers, runs the closest-pair algorithms, and prints the same rows and
// series the paper reports. The cmd/cpqbench executable and the
// repository-level Go benchmarks are thin wrappers around this package.
package bench

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/storage"
)

// DataKind selects a workload generator.
type DataKind int

const (
	// UniformData is the paper's "random data following a uniform-like
	// distribution".
	UniformData DataKind = iota
	// RealData is the stand-in for the Sequoia California sites (see
	// DESIGN.md): a fixed clustered data set of 62,536 points.
	RealData
)

// String implements fmt.Stringer using the paper's labels.
func (k DataKind) String() string {
	switch k {
	case UniformData:
		return "U"
	case RealData:
		return "R"
	default:
		return fmt.Sprintf("DataKind(%d)", int(k))
	}
}

// DataSpec identifies one indexed data set: its generator, cardinality,
// seed, and the x translation that realizes a workspace overlap.
type DataSpec struct {
	Kind  DataKind
	N     int // cardinality before Lab scaling; RealData fixes 62,536
	Seed  int64
	Shift float64
}

// Lab builds and caches experiment trees.
type Lab struct {
	// Config is the physical tree setup; zero value = the paper's
	// (1 KB pages, M=21, m=7).
	Config rtree.Config
	// Scale multiplies every cardinality (1.0 = the paper's sizes; the
	// quick mode of cpqbench and the Go benchmarks use 0.1). 0 means 1.0.
	Scale float64
	// BuildBuffer is the pool capacity (pages) used while building trees;
	// it is replaced by the per-run buffer before each measurement.
	// 0 means 512.
	BuildBuffer int

	trees map[DataSpec]*rtree.Tree
}

// NewLab returns a Lab with the paper's defaults at the given scale.
func NewLab(scale float64) *Lab {
	return &Lab{Config: rtree.DefaultConfig(), Scale: scale}
}

func (l *Lab) scale() float64 {
	if l.Scale <= 0 {
		return 1.0
	}
	return l.Scale
}

// ScaledN returns the effective cardinality for a nominal size.
func (l *Lab) ScaledN(n int) int {
	s := int(float64(n) * l.scale())
	if s < 200 {
		s = 200
	}
	return s
}

// Tree returns the (cached) tree for a data spec, building it by repeated
// insertion as in the paper.
func (l *Lab) Tree(spec DataSpec) (*rtree.Tree, error) {
	if l.trees == nil {
		l.trees = make(map[DataSpec]*rtree.Tree)
	}
	if t, ok := l.trees[spec]; ok {
		return t, nil
	}
	points := l.generate(spec)
	buildBuf := l.BuildBuffer
	if buildBuf == 0 {
		buildBuf = 512
	}
	cfg := l.Config
	if cfg.PageSize == 0 {
		cfg = rtree.DefaultConfig()
	}
	pool := storage.NewBufferPool(storage.NewMemFile(cfg.PageSize), buildBuf)
	t, err := rtree.New(pool, cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if err := t.InsertPoint(p, int64(i)); err != nil {
			return nil, fmt.Errorf("bench: building %+v: %w", spec, err)
		}
	}
	attachDefaultNodeCache(t)
	l.trees[spec] = t
	return t, nil
}

func (l *Lab) generate(spec DataSpec) []geom.Point {
	var pts []geom.Point
	switch spec.Kind {
	case RealData:
		n := l.ScaledN(dataset.RealCardinality)
		pts = dataset.Clustered(62536, n)
	default:
		pts = dataset.Uniform(spec.Seed, l.ScaledN(spec.N))
	}
	if spec.Shift != 0 {
		for i := range pts {
			pts[i] = pts[i].Add(spec.Shift, 0)
		}
	}
	return pts
}

// Pair returns the two trees of a workload: left in the unit workspace,
// right shifted so the workspaces overlap by the given portion.
func (l *Lab) Pair(left, right DataSpec, overlap float64) (*rtree.Tree, *rtree.Tree, error) {
	left.Shift = 0
	right.Shift = 1 - overlap
	ta, err := l.Tree(left)
	if err != nil {
		return nil, nil, err
	}
	tb, err := l.Tree(right)
	if err != nil {
		return nil, nil, err
	}
	return ta, tb, nil
}

// prepare configures the paper's buffer scheme for one measured run: an
// LRU buffer of B pages split evenly between the two trees, cold caches
// (node caches included, when attached), zeroed counters.
func prepare(ta, tb *rtree.Tree, bufferPages int) {
	half := bufferPages / 2
	ta.Pool().Resize(half)
	tb.Pool().Resize(half)
	ta.Pool().Clear()
	tb.Pool().Clear()
	ta.Pool().ResetStats()
	tb.Pool().ResetStats()
	for _, tr := range []*rtree.Tree{ta, tb} {
		if c := tr.NodeCache(); c != nil {
			c.Clear()
			c.ResetStats()
		}
	}
}

// defaultParallelism, when non-zero, overrides a zero Options.Parallelism
// in RunCore: cpqbench -parallel plumbs through here so every experiment
// can be re-run in parallel mode for disk-access-parity comparisons
// without touching each experiment's option wiring.
var defaultParallelism atomic.Int64

// SetDefaultParallelism sets the worker count applied to experiments that
// do not choose one themselves (0 restores the sequential default;
// core.AutoParallelism selects GOMAXPROCS).
func SetDefaultParallelism(n int) { defaultParallelism.Store(int64(n)) }

// defaultLeafScan, when set (stored value = LeafScan + 1), overrides
// Options.LeafScan in RunCore: cpqbench -leafscan and the CPQ_LEAFSCAN env
// knob plumb through here so every experiment and benchmark can be A/B'd
// between the sweep and brute leaf scans without per-experiment wiring.
var defaultLeafScan atomic.Int64

// SetDefaultLeafScan forces a leaf scan strategy onto every RunCore call.
func SetDefaultLeafScan(l core.LeafScan) { defaultLeafScan.Store(int64(l) + 1) }

// defaultShards, when above 1, reroutes every RunCore call through the
// scatter-gather executor of internal/shard with that many spatial
// tiles: cpqbench -shards and the CPQ_SHARDS env knob plumb through
// here. A rerouted query re-partitions both sets (STR tiles, one tree
// pair and buffer pool per tile) and measures I/O on the shard pools,
// so its access counts are not comparable to the paper's monolithic
// figures; the knob exists to A/B the sharded executor across every
// experiment, as -parallel does for the parallel engine. The result
// distances and tie order stay bit-identical to the monolithic join.
var defaultShards atomic.Int64

// SetDefaultShards reroutes experiments run afterwards through the
// sharded executor with t tiles (values <= 1 restore the monolithic
// join).
func SetDefaultShards(t int) { defaultShards.Store(int64(t)) }

// defaultNodeCache is the decoded-node cache capacity (nodes per tree)
// Lab.Tree and buildParallelTree attach to freshly built trees; 0 (the
// default) builds trees without a cache, preserving the paper's exact
// disk-access accounting. cpqbench -nodecache and the CPQ_NODECACHE env
// knob plumb through here.
var defaultNodeCache atomic.Int64

// SetDefaultNodeCache sets the node-cache capacity attached to trees built
// afterwards (0 disables).
func SetDefaultNodeCache(nodes int) { defaultNodeCache.Store(int64(nodes)) }

// attachDefaultNodeCache attaches the default node cache and tracer (when
// set) to a freshly built tree.
func attachDefaultNodeCache(t *rtree.Tree) {
	if n := defaultNodeCache.Load(); n > 0 {
		t.SetNodeCache(rtree.NewNodeCache(int(n), 16))
	}
	if b := defaultTracer.Load(); b != nil {
		t.SetTracer(b.tr)
		t.Pool().SetTracer(b.tr)
	}
}

// defaultContext, when set, is threaded into every RunCore query:
// cpqbench -timeout (and the CPQ_TIMEOUT env knob) plumb a deadline
// context through here, so a wall-clock budget covers the whole
// experiment sweep and a stuck configuration cannot hang an unattended
// run. Boxed because atomic.Pointer needs a concrete type.
type ctxBox struct{ ctx context.Context }

var defaultContext atomic.Pointer[ctxBox]

// SetDefaultContext applies ctx to experiments run afterwards (nil
// restores the non-cancellable context.Background()).
func SetDefaultContext(ctx context.Context) {
	if ctx == nil {
		defaultContext.Store(nil)
		return
	}
	defaultContext.Store(&ctxBox{ctx: ctx})
}

// defaultCtx resolves the context for one measured query.
func defaultCtx() context.Context {
	if b := defaultContext.Load(); b != nil {
		return b.ctx
	}
	return context.Background()
}

// defaultTracer, when set, is attached to every RunCore query and to every
// tree built afterwards (cache/evict events): cpqbench -trace plumbs
// through here so all experiments of a run land in one JSONL stream.
// Boxed because atomic.Value needs a consistent concrete type.
type tracerBox struct{ tr obs.Tracer }

var defaultTracer atomic.Pointer[tracerBox]

// SetDefaultTracer attaches tr to experiments run afterwards (nil
// restores the free no-tracer default). Trees already built keep their
// previous tracer.
func SetDefaultTracer(tr obs.Tracer) {
	if tr == nil {
		defaultTracer.Store(nil)
		return
	}
	defaultTracer.Store(&tracerBox{tr: tr})
}

// defaultExplain, when true, attaches a fresh EXPLAIN capture to every
// RunCore query: cpqbench -explain plumbs through here. Each query's
// snapshot replaces the previous one in lastExplain, so after a sweep
// LastExplain returns the final query's full plan + execution breakdown.
var defaultExplain atomic.Bool

// lastExplain holds the most recent RunCore query's explain snapshot.
var lastExplain atomic.Pointer[explain.Explain]

// SetDefaultExplain toggles per-query EXPLAIN capture for experiments run
// afterwards.
func SetDefaultExplain(on bool) { defaultExplain.Store(on) }

// LastExplain returns the explain snapshot of the most recent RunCore
// query captured under SetDefaultExplain(true); nil if none ran.
func LastExplain() *explain.Explain { return lastExplain.Load() }

// defaultMetrics, when set, receives every RunCore query's cost report:
// cpqbench -metrics-addr plumbs through here.
var defaultMetrics atomic.Pointer[obs.EngineMetrics]

// SetDefaultMetrics routes the cost of experiments run afterwards into em
// (nil disables).
func SetDefaultMetrics(em *obs.EngineMetrics) { defaultMetrics.Store(em) }

// init wires the env knobs used by `ci.sh bench` to re-run the Go
// benchmarks under the pre-optimisation configuration
// (CPQ_LEAFSCAN=brute) or with the decoded-node cache attached
// (CPQ_NODECACHE=<nodes per tree>).
func init() {
	switch os.Getenv("CPQ_LEAFSCAN") {
	case "brute":
		SetDefaultLeafScan(core.LeafScanBrute)
	case "sweep":
		SetDefaultLeafScan(core.LeafScanSweep)
	}
	if v := os.Getenv("CPQ_NODECACHE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			SetDefaultNodeCache(n)
		}
	}
	if v := os.Getenv("CPQ_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			SetDefaultShards(n)
		}
	}
}

// Totals aggregates the cost of every RunCore / RunIncremental call since
// the last ResetTotals. cpqbench's -json mode snapshots it per experiment.
type Totals struct {
	Queries         int64   `json:"queries"`
	Accesses        int64   `json:"accesses"`
	NodePairs       int64   `json:"node_pairs"`
	PointPairs      int64   `json:"point_pairs"`
	HeapBatches     int64   `json:"heap_batches"`
	HeapBatchPairs  int64   `json:"heap_batch_pairs"`
	NodeCacheHits   int64   `json:"node_cache_hits"`
	NodeCacheMisses int64   `json:"node_cache_misses"`
	NodeCacheRatio  float64 `json:"node_cache_hit_ratio"`
}

var totQueries, totAccesses, totNodePairs, totPointPairs atomic.Int64
var totHeapBatches, totHeapBatchPairs atomic.Int64
var totCacheHits, totCacheMisses atomic.Int64

// ResetTotals zeroes the aggregate counters.
func ResetTotals() {
	totQueries.Store(0)
	totAccesses.Store(0)
	totNodePairs.Store(0)
	totPointPairs.Store(0)
	totHeapBatches.Store(0)
	totHeapBatchPairs.Store(0)
	totCacheHits.Store(0)
	totCacheMisses.Store(0)
}

// CurrentTotals snapshots the aggregate counters.
func CurrentTotals() Totals {
	t := Totals{
		Queries:         totQueries.Load(),
		Accesses:        totAccesses.Load(),
		NodePairs:       totNodePairs.Load(),
		PointPairs:      totPointPairs.Load(),
		HeapBatches:     totHeapBatches.Load(),
		HeapBatchPairs:  totHeapBatchPairs.Load(),
		NodeCacheHits:   totCacheHits.Load(),
		NodeCacheMisses: totCacheMisses.Load(),
	}
	if lookups := t.NodeCacheHits + t.NodeCacheMisses; lookups > 0 {
		t.NodeCacheRatio = float64(t.NodeCacheHits) / float64(lookups)
	}
	return t
}

// RunCore executes one K-CPQ with one of the paper's algorithms under the
// given buffer size and returns its statistics.
func RunCore(ta, tb *rtree.Tree, k int, opts core.Options, bufferPages int) (core.Stats, error) {
	prepare(ta, tb, bufferPages)
	if opts.Parallelism == 0 {
		opts.Parallelism = int(defaultParallelism.Load())
	}
	if l := defaultLeafScan.Load(); l > 0 {
		opts.LeafScan = core.LeafScan(l - 1)
	}
	if opts.Tracer == nil {
		if b := defaultTracer.Load(); b != nil {
			opts.Tracer = b.tr
		}
	}
	if opts.Metrics == nil {
		opts.Metrics = defaultMetrics.Load()
	}
	var ec *explain.Capture
	if defaultExplain.Load() {
		ec = explain.New(opts.Tracer)
		opts.Tracer = ec
	}
	var started time.Time
	if opts.Metrics != nil {
		started = time.Now()
	}
	var pairs []core.Pair
	var stats core.Stats
	var err error
	if t := int(defaultShards.Load()); t > 1 {
		var res shard.Result
		res, err = shard.KClosestPairsContext(defaultCtx(), ta, tb, k, opts, shard.Config{Tiles: t, Capture: ec}, nil)
		pairs, stats = res.Pairs, res.Stats
	} else {
		pairs, stats, err = core.KClosestPairsContext(defaultCtx(), ta, tb, k, opts)
	}
	if opts.Metrics != nil {
		opts.Metrics.Record(core.NewQueryReport(core.QueryLabel(opts, k), opts, pairs, stats, time.Since(started), err))
	}
	if ec != nil {
		lastExplain.Store(ec.Snapshot())
	}
	if err == nil {
		totQueries.Add(1)
		totAccesses.Add(stats.Accesses())
		totNodePairs.Add(stats.NodePairsProcessed)
		totPointPairs.Add(stats.PointPairsCompared)
		totHeapBatches.Add(stats.HeapBatches)
		totHeapBatchPairs.Add(stats.HeapBatchPairs)
		totCacheHits.Add(stats.NodeCacheHits)
		totCacheMisses.Add(stats.NodeCacheMisses)
	}
	return stats, err
}

// RunIncremental executes one K-bounded incremental distance join under
// the given buffer size and returns its statistics.
func RunIncremental(ta, tb *rtree.Tree, k int, opts incremental.Options, bufferPages int) (incremental.Stats, error) {
	prepare(ta, tb, bufferPages)
	_, stats, err := incremental.GetK(ta, tb, k, opts)
	if err == nil {
		totQueries.Add(1)
		totAccesses.Add(stats.Accesses())
	}
	return stats, err
}
