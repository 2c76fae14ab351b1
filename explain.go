package cpq

import (
	"context"

	"repro/internal/obs"
	"repro/internal/obs/explain"
)

// ExplainReport is one query's EXPLAIN/ANALYZE snapshot: the plan
// (algorithm, K, workers, leaf scan, shard layout, transport) and the
// execution (phase wall breakdown, per-shard-pair
// dispatch decisions, bound-tightening trajectory, span tree, full work
// counters). Render draws it as a text tree; JSON emits the canonical
// byte-stable form.
type ExplainReport = explain.Explain

// ExplainCapture collects one query's explain data. Pass it to queries
// with WithExplain, or use the Explain/ExplainContext convenience calls
// which manage one internally. A nil capture is free: every capture point
// in the engine costs one pointer comparison and allocates nothing.
type ExplainCapture = explain.Capture

// ExplainSpan is one span of the query's trace in the explain snapshot;
// wire shard transports return forests of these for the gather side to
// merge (see ShardTransport).
type ExplainSpan = explain.SpanNode

// TraceContext identifies a span's position in a distributed trace (trace
// id + span id) — the value that crosses the ShardTransport boundary so
// remote shard joins correlate with the gather-side query span.
type TraceContext = obs.TraceContext

// NewExplainCapture returns an empty explain capture. tee, when non-nil,
// receives every trace event the capture sees, so an existing tracer
// keeps working while explain is on.
func NewExplainCapture(tee Tracer) *ExplainCapture { return explain.New(tee) }

// WithExplain attaches an explain capture to the query: the capture
// becomes the query's tracer (an existing WithTracer is teed through),
// the plan and per-phase/per-shard execution rows are recorded, and a
// slow-query log attached to the same query embeds the full snapshot in
// its JSON line. Call capture.Snapshot() after the query for the report.
func WithExplain(c *ExplainCapture) QueryOption {
	return func(o *queryConfig) { o.capture = c }
}

// Explain runs KClosestPairs with an explain capture attached and returns
// the results together with the EXPLAIN/ANALYZE report. It is the
// non-cancellable shim over ExplainContext.
func Explain(p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	return ExplainContext(context.Background(), p, q, k, opts...)
}

// ExplainContext is Explain under a context; see ClosestPairContext for
// the cancellation contract. The returned report covers the whole query:
// for sharded runs the plan carries the tile boundaries and transport,
// the execution carries one row per planned shard pair, and the span tree
// correlates every shard join — local or remote — under the query's
// trace id.
func ExplainContext(ctx context.Context, p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	c := NewExplainCapture(nil)
	pairs, stats, err := KClosestPairsContext(ctx, p, q, k, append(append([]QueryOption{}, opts...), WithExplain(c))...)
	if err != nil {
		return nil, stats, nil, err
	}
	return pairs, stats, c.Snapshot(), nil
}
