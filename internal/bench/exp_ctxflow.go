package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/rtree"
)

// This file is the cancellation-overhead gate behind `ci.sh bench`: the
// default sequential HEAP configuration (plane-sweep leaf scan, batched
// expansion kernel, K=100 over the standard 100,000-point uniform
// workload, B=512) run twice per repetition — once through the
// Background shim (ctx.Done() == nil, the poll gate never touches the
// context) and once under a live cancellable context that is never
// cancelled (every stride-th poll really calls ctx.Err()). The two
// variants must return byte-identical distances and cost counters, and
// the cancellable run's best wall clock must stay within
// ctxflowMaxOverhead of the shim's — the stride-gated poll is designed
// to be free, and this experiment is where that claim is enforced.

// ctxflowMaxOverhead is the accepted fractional wall-clock overhead of
// the cancellable path (0.01 = 1%).
const ctxflowMaxOverhead = 0.01

// ctxflowGateFloor is the minimum baseline wall clock at which the 1%
// gate is meaningful: below it (scaled-down smoke runs, sub-millisecond
// joins) scheduler noise alone exceeds the margin, so only a gross
// regression fails; the strict gate binds on the full-scale 100k×100k
// run `ci.sh bench` performs.
const ctxflowGateFloor = 100 * time.Millisecond

// ctxflowNoiseOverhead is the loose sanity bound applied below the
// floor.
const ctxflowNoiseOverhead = 0.25

// ctxflowReps is the number of interleaved repetitions; the minimum wall
// time per variant is compared, which discards scheduling noise instead
// of averaging it in.
const ctxflowReps = 7

// runCtxFlow is the "ctxflow" experiment.
func runCtxFlow(l *Lab, w io.Writer) error {
	// The gate controls every knob per run; neutralise cpqbench
	// overrides for its duration.
	savedScan := defaultLeafScan.Load()
	savedPar := defaultParallelism.Load()
	defaultLeafScan.Store(0)
	defaultParallelism.Store(0)
	defer func() {
		defaultLeafScan.Store(savedScan)
		defaultParallelism.Store(savedPar)
	}()

	cfg := l.Config
	if cfg.PageSize == 0 {
		cfg = rtree.DefaultConfig()
	}
	n := l.ScaledN(100000)
	const buffer = 512
	const k = 100
	ta, err := buildParallelTree(cfg, 91, n, 0)
	if err != nil {
		return err
	}
	tb, err := buildParallelTree(cfg, 92, n, 0)
	if err != nil {
		return err
	}
	ta.SetNodeCache(nil)
	tb.SetNodeCache(nil)

	opts := core.DefaultOptions(core.Heap)

	// ctx is live (Done() != nil) but never cancelled, so the stride
	// gate's every firing pays the real ctx.Err() call.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type variant struct {
		label string
		run   func() ([]core.Pair, core.Stats, error)
	}
	variants := []variant{
		{"background", func() ([]core.Pair, core.Stats, error) {
			return core.KClosestPairs(ta, tb, k, opts)
		}},
		{"cancellable", func() ([]core.Pair, core.Stats, error) {
			return core.KClosestPairsContext(ctx, ta, tb, k, opts)
		}},
	}

	best := make([]time.Duration, len(variants))
	dists := make([][]float64, len(variants))
	stats := make([]core.Stats, len(variants))
	for i := range best {
		best[i] = time.Duration(1<<62 - 1)
	}
	// Interleave the variants within each repetition so drift (thermal,
	// cache, page layout) hits both sides equally.
	for r := 0; r < ctxflowReps; r++ {
		for i, v := range variants {
			prepare(ta, tb, buffer)
			start := time.Now()
			pairs, s, err := v.run()
			if err != nil {
				return fmt.Errorf("ctxflow: %s: %w", v.label, err)
			}
			if wall := time.Since(start); wall < best[i] {
				best[i] = wall
			}
			stats[i] = s
			dists[i] = dists[i][:0]
			for _, p := range pairs {
				dists[i] = append(dists[i], p.Dist)
			}
		}
	}

	// Identical results and paper counters: the context thread must be
	// invisible when the query is never cancelled.
	if len(dists[0]) != len(dists[1]) {
		return fmt.Errorf("ctxflow: cancellable run returned %d pairs, background %d",
			len(dists[1]), len(dists[0]))
	}
	for i := range dists[0] {
		if dists[0][i] != dists[1][i] {
			return fmt.Errorf("ctxflow: distance[%d] = %g cancellable, %g background",
				i, dists[1][i], dists[0][i])
		}
	}
	if stats[0].Accesses() != stats[1].Accesses() || stats[0].NodePairsProcessed != stats[1].NodePairsProcessed {
		return fmt.Errorf("ctxflow: cancellable counters (accesses %d, node pairs %d) deviate from background (%d, %d)",
			stats[1].Accesses(), stats[1].NodePairsProcessed,
			stats[0].Accesses(), stats[0].NodePairsProcessed)
	}

	t := newTable(
		fmt.Sprintf("Cancellation overhead (uniform %d/%d bulk-loaded, K=%d, B=%d, HEAP defaults)", n, n, k, buffer),
		"variant", "wall (best of "+fmt.Sprint(ctxflowReps)+")", "accesses", "node pairs")
	for i, v := range variants {
		t.addRow(v.label, best[i].Round(time.Microsecond).String(),
			fmt.Sprintf("%d", stats[i].Accesses()),
			fmt.Sprintf("%d", stats[i].NodePairsProcessed))
	}
	if err := t.write(w); err != nil {
		return err
	}

	overhead := float64(best[1])/float64(best[0]) - 1
	maxOverhead := ctxflowMaxOverhead
	gateNote := "strict"
	if best[0] < ctxflowGateFloor {
		maxOverhead = ctxflowNoiseOverhead
		gateNote = fmt.Sprintf("noise-tolerant below a %s baseline; run at full scale for the strict gate", ctxflowGateFloor)
	}
	if _, err := fmt.Fprintf(w, "cancellable-context overhead vs Background shim: %+.2f%% (gate: <= %.0f%%, %s).\n\n",
		overhead*100, maxOverhead*100, gateNote); err != nil {
		return err
	}
	// The regression gate of `ci.sh bench`: threading a live context
	// must not slow the never-cancelled hot path.
	if overhead > maxOverhead {
		return fmt.Errorf("ctxflow: cancellable path is %.2f%% slower than the Background shim (max %.0f%%)",
			overhead*100, maxOverhead*100)
	}
	return nil
}
