package cpq

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/multiway"
	"repro/internal/rtree"
)

// This file exposes the extensions beyond the paper's core contribution:
// the distance range join (the classic join K-CPQ generalizes), the
// multi-way closest-tuples query of the paper's future-work item (a), and
// the query-optimizer advisor encoding the paper's experimental
// guidelines.

// WithinDistance streams every pair (p, q) with dist(p, q) <= eps to fn in
// no particular order; fn may return false to stop. It uses the paper's
// MINMINDIST pruning with the fixed bound eps. It is the non-cancellable
// shim over WithinDistanceContext.
func WithinDistance(p, q *Index, eps float64, fn func(Pair) bool, opts ...QueryOption) (Stats, error) {
	return WithinDistanceContext(context.Background(), p, q, eps, fn, opts...)
}

// WithinDistanceContext is WithinDistance under a context; see
// ClosestPairContext for the cancellation contract.
//
// Its cost report is labelled "range" and carries no result count: the
// pairs stream to fn instead of being returned.
func WithinDistanceContext(ctx context.Context, p, q *Index, eps float64, fn func(Pair) bool, opts ...QueryOption) (Stats, error) {
	cfg := buildPlainConfig(opts)
	started := cfg.start()
	stats, err := core.WithinDistanceContext(ctx, p.tree, q.tree, eps, cfg.core, fn)
	cfg.report("range", 0, started, nil, stats, err)
	return stats, err
}

// Advice is a recommended query plan, per the paper's guidelines.
type Advice = core.Advice

// Advise recommends the algorithm for a closest-pair query over the two
// indexes given the buffer budget (total pages for the query), following
// the guidelines of the paper's Sections 4.4 and 5.3: STD for disjoint or
// barely overlapping workspaces and for buffered queries, HEAP for
// overlapping workspaces with little or no buffer.
func Advise(p, q *Index, bufferPages int) (Advice, error) {
	return core.Advise(p.tree, q.tree, bufferPages)
}

// TuplePattern shapes the combined distance of a multi-way query.
type TuplePattern = multiway.Pattern

// Multi-way query patterns.
const (
	// ChainPattern scores consecutive legs: dist(p1,p2) + ... +
	// dist(pD-1, pD).
	ChainPattern = multiway.Chain
	// RingPattern additionally closes the loop with dist(pD, p1).
	RingPattern = multiway.Ring
)

// Tuple is a multi-way result: one point per index plus the combined
// distance.
type Tuple = multiway.Tuple

// TupleStats reports the cost of a multi-way query.
type TupleStats = multiway.Stats

// TupleOption tunes a multi-way query.
type TupleOption func(*multiway.Options)

// WithTuplePattern selects the query pattern (default ChainPattern).
func WithTuplePattern(p TuplePattern) TupleOption {
	return func(o *multiway.Options) { o.Pattern = p }
}

// WithTupleMetric selects the distance metric (default Euclidean).
func WithTupleMetric(m Metric) TupleOption {
	return func(o *multiway.Options) { o.Metric = m }
}

// KClosestTuples finds the k closest tuples across two or more indexes —
// one point from each — under the selected pattern (the multi-way CPQ of
// the paper's future-work section, extending multi-way spatial joins).
func KClosestTuples(indexes []*Index, k int, opts ...TupleOption) ([]Tuple, TupleStats, error) {
	if len(indexes) < 2 {
		return nil, TupleStats{}, fmt.Errorf("cpq: need at least 2 indexes, got %d", len(indexes))
	}
	var o multiway.Options
	for _, f := range opts {
		f(&o)
	}
	trees := make([]*rtree.Tree, len(indexes))
	for i, idx := range indexes {
		trees[i] = idx.tree
	}
	return multiway.KClosestTuples(trees, k, o)
}
