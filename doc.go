// Package cpq is a Go implementation of the closest-pair query algorithms
// of Corral, Manolopoulos, Theodoridis and Vassilakopoulos, "Closest Pair
// Queries in Spatial Databases" (SIGMOD 2000), together with the full
// substrate the paper assumes: a paged storage engine with LRU buffer
// management, a disk-based R*-tree, and the incremental distance-join
// baseline of Hjaltason & Samet (SIGMOD 1998).
//
// The package answers, over two point sets P and Q each indexed by an
// R*-tree:
//
//   - 1-CPQ — the pair (p, q) ∈ P × Q with the smallest distance;
//   - K-CPQ — the K such pairs with the K smallest distances;
//   - self-CPQ — the K closest pairs within a single set;
//   - semi-CPQ — for each p ∈ P its nearest q ∈ Q;
//   - incremental joins — pairs streamed in ascending distance order.
//
// Five algorithms are provided (Naive, Exhaustive, Simple, Sorted
// Distances, Heap) plus the tie-break strategies T1-T5, the fix-at-root /
// fix-at-leaves height treatments, and two K-pruning rules; every option
// of the paper's experimental study is reachable through QueryOption
// values. Leaf pairs are scanned with a plane sweep by default, or with
// the paper's all-pairs scan via WithLeafScan(LeafScanBrute); node-pair
// expansion always runs through one batched kernel, and the sequential
// HEAP pops one pair at a time in strict best-first order.
//
// # Quick start
//
//	p, _ := cpq.BuildIndex(hotels)          // []cpq.Point
//	q, _ := cpq.BuildIndex(restaurants)
//	pair, stats, _ := cpq.ClosestPair(p, q) // HEAP algorithm by default
//	fmt.Println(pair.P, pair.Q, pair.Dist, stats.Accesses())
//
// Indexes live on fixed-size pages (1 KB with node capacity M=21 by
// default, the paper's setup) behind an LRU buffer pool whose miss counter
// is the paper's "disk accesses" metric. Use WithPath to put an index on
// disk, and OpenIndex to reopen it.
//
// # Observability
//
// WithMetrics and WithSlowQueryLog consume one cost report per query,
// built once from the Stats the query returns, whatever its shape:
// monolithic, parallel or sharded K-CPQ, self, semi or range. A sharded
// query counts once, not once per shard-pair join. WithExplain (or
// Explain) attaches an EXPLAIN/ANALYZE capture to the same query path;
// its snapshot is embedded in the slow-query log line. WithTracer streams
// typed trace events. Nothing is measured when nothing is attached.
package cpq
