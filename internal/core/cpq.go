package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// ErrEmptyInput is returned when either input tree holds no points, so no
// pair exists.
var ErrEmptyInput = errors.New("core: closest pair query over an empty data set")

// KClosestPairs finds the K closest pairs between the point sets stored in
// the two trees (Section 2.1). Results are sorted by ascending distance.
// When fewer than K pairs exist (K > |P|*|Q|) all pairs are returned. With
// distance ties the result is one of the valid instances, as in the paper.
//
// The trees may use different page sizes, node capacities and heights; the
// Options.Height strategy governs mismatched heights.
//
// KClosestPairs is the non-cancellable shim over KClosestPairsContext.
func KClosestPairs(ta, tb *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	return KClosestPairsContext(context.Background(), ta, tb, k, opts)
}

// KClosestPairsContext is KClosestPairs under a context: the traversal
// polls ctx every cancelStride steps (parallel workers per claimed batch)
// and returns ctx.Err() when it fires, with all buffer-pool pins released
// and all workers joined. A query that completes without the context
// firing returns results, counters and disk accesses byte-identical to
// the context-free call.
func KClosestPairsContext(ctx context.Context, ta, tb *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	j, err := newJoin(ta, tb, k, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil, Stats{}, ErrEmptyInput
	}

	if opts.Tracer != nil {
		j.span = obs.StartSpanFrom(opts.Tracer, opts.Trace, QueryLabel(opts, k))
	}

	startA := ta.Pool().Stats()
	startB := tb.Pool().Stats()
	startCA := ta.NodeCacheStats()
	startCB := tb.NodeCacheStats()

	root, err := j.rootPair()
	if err == nil {
		err = ctx.Err() // don't start a traversal under a dead context
	}
	if err == nil {
		switch {
		case opts.Algorithm == Heap && opts.Workers() > 1:
			err = j.runHeapParallel(ctx, root, opts.Workers())
		case opts.Algorithm == Heap:
			err = j.runHeap(ctx, root)
		default:
			err = j.runRecursive(ctx, root)
		}
	}
	if err != nil {
		j.traceQueryEnd(0, err)
		return nil, Stats{}, err
	}

	stats := j.stats.snapshot()
	// With a shared pool (e.g. a self join) report the delta once.
	stats.IOP = ta.Pool().Stats().Sub(startA)
	if ta.Pool() != tb.Pool() {
		stats.IOQ = tb.Pool().Stats().Sub(startB)
	}
	ca := ta.NodeCacheStats().Sub(startCA)
	stats.Merge(Stats{NodeCacheHits: ca.Hits, NodeCacheMisses: ca.Misses})
	if ta != tb {
		cb := tb.NodeCacheStats().Sub(startCB)
		stats.Merge(Stats{NodeCacheHits: cb.Hits, NodeCacheMisses: cb.Misses})
	}
	pairs := j.results()
	j.traceQueryEnd(len(pairs), nil)
	return pairs, stats, nil
}

// QueryLabel renders the query description used as the span label and the
// metrics/slow-log aggregation key. Exported so the facade labels its
// explain plan and cost report exactly like the engine labels its span.
func QueryLabel(opts Options, k int) string {
	if w := opts.Workers(); w > 1 {
		return fmt.Sprintf("%s k=%d par=%d", opts.Algorithm, k, w)
	}
	return fmt.Sprintf("%s k=%d", opts.Algorithm, k)
}

// NewQueryReport builds the one per-query cost report that every consumer
// reads: the metric set, the slow-query log and the explain result. pairs
// are the returned results in ascending distance order (the last one is
// the K-th distance); err, when non-nil, makes it an error report that
// carries no counters.
func NewQueryReport(label string, opts Options, pairs []Pair, stats Stats, elapsed time.Duration, err error) obs.QueryReport {
	r := obs.QueryReport{Label: label, Seconds: elapsed.Seconds(), Workers: opts.Workers()}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Accesses = stats.Accesses()
	r.NodePairs = stats.NodePairsProcessed
	r.PointPairs = stats.PointPairsCompared
	r.CacheHits = stats.NodeCacheHits
	r.CacheMisses = stats.NodeCacheMisses
	r.Results = len(pairs)
	if len(pairs) > 0 {
		r.KthDistance = pairs[len(pairs)-1].Dist
	}
	return r
}

// ClosestPair finds the single closest pair (the 1-CPQ of Section 2.1),
// using the K = 1 specializations (Inequality 2 pruning) automatically.
//
// ClosestPair is the non-cancellable shim over ClosestPairContext.
func ClosestPair(ta, tb *rtree.Tree, opts Options) (Pair, Stats, error) {
	return ClosestPairContext(context.Background(), ta, tb, opts)
}

// ClosestPairContext is ClosestPair under a context; see
// KClosestPairsContext for the cancellation contract.
func ClosestPairContext(ctx context.Context, ta, tb *rtree.Tree, opts Options) (Pair, Stats, error) {
	pairs, stats, err := KClosestPairsContext(ctx, ta, tb, 1, opts)
	if err != nil {
		return Pair{}, stats, err
	}
	if len(pairs) == 0 {
		return Pair{}, stats, ErrEmptyInput
	}
	return pairs[0], stats, nil
}
