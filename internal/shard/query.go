package shard

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/rtree"
)

// KClosestPairsContext runs one K-CPQ over two monolithic trees as
// scatter-gather, the whole sequence a per-query sharded run pays for:
// collect both trees' items, partition them into cfg.Tiles tiles, join
// the tile pairs through tr (nil means InProc) under the broadcast bound,
// K-merge, and close the shard set. The shard trees inherit ta's tree
// geometry (cfg.Tree is overridden) so per-shard traversals see the same
// page and fan-out regime as the monolithic join. cfg.Capture, when
// non-nil, receives the partition phases, the shard plan (tile count,
// transport, tile bounds) and the executor's rows.
func KClosestPairsContext(ctx context.Context, ta, tb *rtree.Tree, k int, opts core.Options, cfg Config, tr Transport) (Result, error) {
	itemsA, err := treeItems(ta)
	if err != nil {
		return Result{}, err
	}
	itemsB, err := treeItems(tb)
	if err != nil {
		return Result{}, err
	}
	cfg.Tree = ta.Config()
	set, err := PartitionContext(ctx, itemsA, itemsB, cfg)
	if err != nil {
		return Result{}, err
	}
	if tr == nil {
		tr = InProc{}
	}
	// The tile-bound collection runs only under an explain capture; the
	// nil-capture path must not pay for it (SetPlanShards is nil-safe, but
	// its arguments would still be built).
	if cfg.Capture != nil {
		cfg.Capture.SetPlanShards(set.Tiles(), tr.String(), set.TileBounds())
	}
	ex := Executor{Set: set, Transport: tr, Capture: cfg.Capture}
	res, err := ex.RunContext(ctx, k, opts)
	if err != nil {
		return Result{}, errors.Join(err, set.Close())
	}
	if err := set.Close(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// treeItems drains a tree's items for re-partitioning.
func treeItems(t *rtree.Tree) ([]rtree.Item, error) {
	out := make([]rtree.Item, 0, t.Len())
	err := t.All(func(it rtree.Item) bool {
		out = append(out, it)
		return true
	})
	return out, err
}
