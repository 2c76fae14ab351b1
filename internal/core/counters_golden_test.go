package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// counterGolden is one frozen row of the paper's cost counters for a
// sequential query (Parallelism 1, default sweep leaf scan).
type counterGolden struct {
	data   string
	alg    Algorithm
	k      int
	height HeightStrategy

	accesses, nodePairs, subGen, subPruned, pointPairs int64
}

// goldenCounterTrees builds the two tree pairs of the frozen-counter table.
// The P side holds four times as many points as the Q side, so the trees
// differ in height and FixAtRoot and FixAtLeaves take different paths.
func goldenCounterTrees(t testing.TB) map[string][2]*rtree.Tree {
	t.Helper()
	build := func(ps, qs []geom.Point) [2]*rtree.Tree {
		ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
		if ta.Height() == tb.Height() {
			t.Fatalf("golden trees share height %d; FixAtRoot and FixAtLeaves would coincide", ta.Height())
		}
		return [2]*rtree.Tree{ta, tb}
	}
	return map[string][2]*rtree.Tree{
		"uniform":   build(dataset.Uniform(41, 1200), dataset.Uniform(42, 300)),
		"clustered": build(dataset.Clustered(43, 1200), dataset.Clustered(44, 300)),
	}
}

// counterGoldens was recorded from the per-pair expansion path that
// preceded the batched kernel (plane-sweep leaf scan, Parallelism 1). The
// kernel is specified to reproduce that path's sub-pairs, bounds and
// counters exactly, so every row must match to the unit.
var counterGoldens = []counterGolden{
	{"uniform", Naive, 1, FixAtRoot, 40576, 20287, 20286, 0, 1300},
	{"uniform", Naive, 1, FixAtLeaves, 47926, 23962, 23961, 0, 2334},
	{"uniform", Naive, 100, FixAtRoot, 40576, 20287, 20286, 0, 13021},
	{"uniform", Naive, 100, FixAtLeaves, 47926, 23962, 23961, 0, 13259},
	{"uniform", Exhaustive, 1, FixAtRoot, 732, 365, 2864, 2500, 160},
	{"uniform", Exhaustive, 1, FixAtLeaves, 882, 440, 1861, 1422, 271},
	{"uniform", Exhaustive, 100, FixAtRoot, 1094, 546, 3160, 2615, 2671},
	{"uniform", Exhaustive, 100, FixAtLeaves, 1302, 650, 2086, 1437, 2967},
	{"uniform", Simple, 1, FixAtRoot, 726, 362, 2840, 2479, 123},
	{"uniform", Simple, 1, FixAtLeaves, 860, 429, 1827, 1399, 120},
	{"uniform", Simple, 100, FixAtRoot, 1084, 541, 3160, 2620, 2575},
	{"uniform", Simple, 100, FixAtLeaves, 1302, 650, 2086, 1437, 2967},
	{"uniform", SortedDistances, 1, FixAtRoot, 746, 372, 2864, 2493, 233},
	{"uniform", SortedDistances, 1, FixAtLeaves, 888, 443, 1843, 1401, 226},
	{"uniform", SortedDistances, 100, FixAtRoot, 1076, 537, 3310, 2774, 2701},
	{"uniform", SortedDistances, 100, FixAtLeaves, 1252, 625, 2112, 1488, 2501},
	{"uniform", Heap, 1, FixAtRoot, 722, 360, 2840, 2217, 219},
	{"uniform", Heap, 1, FixAtLeaves, 850, 424, 1816, 1160, 218},
	{"uniform", Heap, 100, FixAtRoot, 862, 430, 3072, 560, 1794},
	{"uniform", Heap, 100, FixAtLeaves, 1012, 505, 1924, 381, 1791},
	{"clustered", Naive, 1, FixAtRoot, 43814, 21906, 21905, 0, 843},
	{"clustered", Naive, 1, FixAtLeaves, 52160, 26079, 26078, 0, 846},
	{"clustered", Naive, 100, FixAtRoot, 43814, 21906, 21905, 0, 10297},
	{"clustered", Naive, 100, FixAtLeaves, 52160, 26079, 26078, 0, 9372},
	{"clustered", Exhaustive, 1, FixAtRoot, 644, 321, 2573, 2253, 163},
	{"clustered", Exhaustive, 1, FixAtLeaves, 758, 378, 1637, 1260, 169},
	{"clustered", Exhaustive, 100, FixAtRoot, 1060, 529, 2909, 2381, 2775},
	{"clustered", Exhaustive, 100, FixAtLeaves, 1298, 648, 1997, 1350, 2833},
	{"clustered", Simple, 1, FixAtRoot, 638, 318, 2553, 2236, 159},
	{"clustered", Simple, 1, FixAtLeaves, 756, 377, 1637, 1261, 161},
	{"clustered", Simple, 100, FixAtRoot, 1060, 529, 2909, 2381, 2775},
	{"clustered", Simple, 100, FixAtLeaves, 1270, 634, 1997, 1364, 2582},
	{"clustered", SortedDistances, 1, FixAtRoot, 632, 315, 2578, 2264, 135},
	{"clustered", SortedDistances, 1, FixAtLeaves, 740, 369, 1613, 1245, 177},
	{"clustered", SortedDistances, 100, FixAtRoot, 970, 484, 2836, 2353, 2244},
	{"clustered", SortedDistances, 100, FixAtLeaves, 1174, 586, 1916, 1331, 2264},
	{"clustered", Heap, 1, FixAtRoot, 618, 308, 2532, 2056, 209},
	{"clustered", Heap, 1, FixAtLeaves, 722, 360, 1594, 1085, 216},
	{"clustered", Heap, 100, FixAtRoot, 738, 368, 2625, 773, 1713},
	{"clustered", Heap, 100, FixAtLeaves, 880, 439, 1697, 436, 1732},
}

// TestCounterGoldens pins the paper's cost counters of the default
// sequential path — disk accesses, node pairs, generated and pruned
// sub-pairs, point pairs — to the frozen table for 5 algorithms ×
// K∈{1,100} × {uniform, clustered} × {FixAtRoot, FixAtLeaves}.
func TestCounterGoldens(t *testing.T) {
	if len(counterGoldens) != 2*len(Algorithms())*2*2 {
		t.Fatalf("golden table has %d rows, want %d", len(counterGoldens), 2*len(Algorithms())*2*2)
	}
	trees := goldenCounterTrees(t)
	for _, g := range counterGoldens {
		name := fmt.Sprintf("%s/%v/k=%d/%v", g.data, g.alg, g.k, g.height)
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions(g.alg)
			opts.Height = g.height
			tr := trees[g.data]
			_, st, err := KClosestPairs(tr[0], tr[1], g.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := [5]int64{st.Accesses(), st.NodePairsProcessed, st.SubPairsGenerated,
				st.SubPairsPruned, st.PointPairsCompared}
			want := [5]int64{g.accesses, g.nodePairs, g.subGen, g.subPruned, g.pointPairs}
			if got != want {
				t.Fatalf("counters (accesses, node pairs, sub gen, sub pruned, point pairs) = %v, frozen %v", got, want)
			}
		})
	}
}
