package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// TestSweepBruteEquivalence is the leaf-scan property test: for every
// algorithm, tie strategy, data distribution and several K, the sweep and
// brute scans must return identical result distances (the distance multiset
// of a K-CPQ answer is unique even when the pair set is tie-ambiguous), the
// sweep must never evaluate more point pairs than the brute scan, and both
// must match the brute-force oracle.
func TestSweepBruteEquivalence(t *testing.T) {
	type workload struct {
		name   string
		ps, qs []geom.Point
	}
	workloads := []workload{
		{"uniform", dataset.Uniform(7, 400), shiftPoints(dataset.Uniform(8, 360), 0.5)},
		{"clustered", dataset.Clustered(9, 400), shiftPoints(dataset.Clustered(10, 360), 0.25)},
	}
	ties := append([]TieStrategy{TieNone}, TieStrategies()...)
	for _, wl := range workloads {
		ta := buildTree(t, wl.ps, 256)
		tb := buildTree(t, wl.qs, 256)
		for _, alg := range Algorithms() {
			for _, tie := range ties {
				for _, k := range []int{1, 10, 73} {
					opts := DefaultOptions(alg)
					opts.Tie = tie
					opts.LeafScan = LeafScanBrute
					brutePairs, bruteStats, err := KClosestPairs(ta, tb, k, opts)
					if err != nil {
						t.Fatalf("%s %v %v k=%d brute: %v", wl.name, alg, tie, k, err)
					}
					opts.LeafScan = LeafScanSweep
					sweepPairs, sweepStats, err := KClosestPairs(ta, tb, k, opts)
					if err != nil {
						t.Fatalf("%s %v %v k=%d sweep: %v", wl.name, alg, tie, k, err)
					}
					if len(sweepPairs) != len(brutePairs) {
						t.Fatalf("%s %v %v k=%d: sweep returned %d pairs, brute %d",
							wl.name, alg, tie, k, len(sweepPairs), len(brutePairs))
					}
					for i := range sweepPairs {
						if sweepPairs[i].Dist != brutePairs[i].Dist {
							t.Fatalf("%s %v %v k=%d: pair %d dist sweep=%.17g brute=%.17g",
								wl.name, alg, tie, k, i, sweepPairs[i].Dist, brutePairs[i].Dist)
						}
					}
					if sweepStats.PointPairsCompared > bruteStats.PointPairsCompared {
						t.Fatalf("%s %v %v k=%d: sweep evaluated %d point pairs, brute %d",
							wl.name, alg, tie, k,
							sweepStats.PointPairsCompared, bruteStats.PointPairsCompared)
					}
					checkAgainstBrute(t, sweepPairs, wl.ps, wl.qs, k)
				}
			}
		}
	}
}

// TestSweepParallelEquivalence runs the sweep under the parallel HEAP
// engine: same distances as the sequential brute scan. It also checks the
// heap-batch counters: the sequential driver pops one pair at a time and
// reports none, the parallel take() reports every batch it claimed.
func TestSweepParallelEquivalence(t *testing.T) {
	ps := dataset.Uniform(21, 900)
	qs := shiftPoints(dataset.Uniform(22, 800), 0)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, k := range []int{1, 25, 100} {
		opts := DefaultOptions(Heap)
		opts.LeafScan = LeafScanBrute
		want, seqStats, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if seqStats.HeapBatches != 0 || seqStats.HeapBatchPairs != 0 {
			t.Fatalf("k=%d: sequential HEAP reported %d heap batches (%d pairs), want 0",
				k, seqStats.HeapBatches, seqStats.HeapBatchPairs)
		}
		opts.LeafScan = LeafScanSweep
		opts.Parallelism = 4
		got, parStats, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if parStats.HeapBatches <= 0 || parStats.HeapBatchPairs < parStats.HeapBatches {
			t.Fatalf("k=%d: implausible parallel heap batch counters: %d batches, %d pairs",
				k, parStats.HeapBatches, parStats.HeapBatchPairs)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d pair %d: dist %.17g, want %.17g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// TestSweepMetrics exercises the sweep's x-gap pruning key under every
// supported metric (the key is metric-dependent: d^2 for L2, d for L1/Linf,
// d^p for general Lp).
func TestSweepMetrics(t *testing.T) {
	ps := dataset.Uniform(31, 300)
	qs := dataset.Uniform(32, 280)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	l3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []geom.Metric{geom.L2(), geom.L1(), geom.LInf(), l3} {
		for _, alg := range []Algorithm{SortedDistances, Heap} {
			opts := DefaultOptions(alg)
			opts.Metric = m
			opts.LeafScan = LeafScanBrute
			want, _, err := KClosestPairs(ta, tb, 20, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.LeafScan = LeafScanSweep
			got, sweepStats, err := KClosestPairs(ta, tb, 20, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v %v: got %d pairs, want %d", m, alg, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
					t.Fatalf("%v %v pair %d: dist %.17g, want %.17g",
						m, alg, i, got[i].Dist, want[i].Dist)
				}
			}
			if sweepStats.PointPairsCompared <= 0 {
				t.Fatalf("%v %v: no point pairs counted", m, alg)
			}
		}
	}
}

func shiftPoints(pts []geom.Point, dx float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Add(dx, 0)
	}
	return out
}
