package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sortx"
	"repro/internal/storage"
)

// buildTree indexes pts (ref = index) in a fresh tree. A small page size
// keeps test trees deep so the traversal logic is exercised on several
// levels with modest point counts.
func buildTree(t testing.TB, pts []geom.Point, pageSize int) *rtree.Tree {
	t.Helper()
	// Capacity 0: every page read counts, as in the paper's B=0 setup.
	pool := storage.NewBufferPool(storage.NewMemFile(pageSize), 0)
	tr, err := rtree.New(pool, rtree.Config{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// uniformPoints generates n points in [x0, x0+1) x [0, 1).
func uniformPoints(seed int64, n int, x0 float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// checkAgainstBrute verifies got against the brute-force K-CP result:
// distances must agree (pairs themselves may differ under ties), each pair
// must reference real input points, and the reported distance must be the
// true distance of the reported points.
func checkAgainstBrute(t *testing.T, got []Pair, ps, qs []geom.Point, k int) {
	t.Helper()
	want := BruteForceKCP(ps, qs, k)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %.12g, want %.12g", i, got[i].Dist, want[i].Dist)
		}
		if got[i].RefP < 0 || int(got[i].RefP) >= len(ps) ||
			got[i].RefQ < 0 || int(got[i].RefQ) >= len(qs) {
			t.Fatalf("pair %d: refs out of range: %+v", i, got[i])
		}
		if !ps[got[i].RefP].Equal(got[i].P) || !qs[got[i].RefQ].Equal(got[i].Q) {
			t.Fatalf("pair %d: reported points do not match refs: %+v", i, got[i])
		}
		if math.Abs(got[i].P.Dist(got[i].Q)-got[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: inconsistent distance: %+v", i, got[i])
		}
	}
	// Ascending order.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist-1e-12 {
			t.Fatalf("results not sorted at %d", i)
		}
	}
}

func TestAllAlgorithms1CP(t *testing.T) {
	for _, overlap := range []float64{0, 0.5, 1.0} {
		ps := uniformPoints(100, 700, 0)
		qs := uniformPoints(200, 600, 1-overlap)
		ta := buildTree(t, ps, 256)
		tb := buildTree(t, qs, 256)
		for _, alg := range Algorithms() {
			pair, stats, err := ClosestPair(ta, tb, DefaultOptions(alg))
			if err != nil {
				t.Fatalf("%v overlap %g: %v", alg, overlap, err)
			}
			checkAgainstBrute(t, []Pair{pair}, ps, qs, 1)
			if stats.Accesses() <= 0 {
				t.Errorf("%v: no accesses recorded", alg)
			}
		}
	}
}

func TestAllAlgorithmsKCP(t *testing.T) {
	ps := uniformPoints(300, 500, 0)
	qs := uniformPoints(400, 450, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 2, 5, 17, 100, 1000} {
			got, _, err := KClosestPairs(ta, tb, k, DefaultOptions(alg))
			if err != nil {
				t.Fatalf("%v k=%d: %v", alg, k, err)
			}
			checkAgainstBrute(t, got, ps, qs, k)
		}
	}
}

func TestKLargerThanAllPairs(t *testing.T) {
	ps := uniformPoints(500, 8, 0)
	qs := uniformPoints(600, 7, 0)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		got, _, err := KClosestPairs(ta, tb, 1000, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(got) != 56 {
			t.Fatalf("%v: got %d pairs, want all 56", alg, len(got))
		}
		checkAgainstBrute(t, got, ps, qs, 1000)
	}
}

func TestTieStrategiesCorrect(t *testing.T) {
	// Grid data maximizes exact MINMINDIST ties.
	var ps, qs []geom.Point
	for x := 0; x < 15; x++ {
		for y := 0; y < 15; y++ {
			ps = append(ps, geom.Point{X: float64(x), Y: float64(y)})
			qs = append(qs, geom.Point{X: float64(x) + 0.25, Y: float64(y) + 0.25})
		}
	}
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range []Algorithm{SortedDistances, Heap} {
		for _, tie := range append(TieStrategies(), TieNone) {
			opts := DefaultOptions(alg)
			opts.Tie = tie
			got, _, err := KClosestPairs(ta, tb, 50, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", alg, tie, err)
			}
			checkAgainstBrute(t, got, ps, qs, 50)
		}
	}
}

func TestDifferentHeights(t *testing.T) {
	// 40 points (height 2 at page size 256) versus 4000 (height >= 4).
	ps := uniformPoints(700, 40, 0)
	qs := uniformPoints(800, 4000, 0.3)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	if ta.Height() == tb.Height() {
		t.Fatalf("test requires different heights, got %d and %d", ta.Height(), tb.Height())
	}
	for _, alg := range Algorithms() {
		for _, hs := range []HeightStrategy{FixAtRoot, FixAtLeaves} {
			opts := DefaultOptions(alg)
			opts.Height = hs
			for _, k := range []int{1, 25} {
				got, _, err := KClosestPairs(ta, tb, k, opts)
				if err != nil {
					t.Fatalf("%v %v k=%d: %v", alg, hs, k, err)
				}
				checkAgainstBrute(t, got, ps, qs, k)
				// Symmetric orientation: taller tree first.
				got2, _, err := KClosestPairs(tb, ta, k, opts)
				if err != nil {
					t.Fatalf("%v %v k=%d swapped: %v", alg, hs, k, err)
				}
				for i := range got2 {
					if math.Abs(got2[i].Dist-got[i].Dist) > 1e-9 {
						t.Fatalf("%v %v: swapped orientation diverges at %d", alg, hs, i)
					}
				}
			}
		}
	}
}

func TestKPruningVariants(t *testing.T) {
	ps := uniformPoints(900, 800, 0)
	qs := uniformPoints(901, 800, 0.8)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range []Algorithm{Simple, SortedDistances, Heap} {
		for _, kp := range []KPruning{KPruneMaxMax, KPruneHeapTop} {
			opts := DefaultOptions(alg)
			opts.KPrune = kp
			got, _, err := KClosestPairs(ta, tb, 60, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", alg, kp, err)
			}
			checkAgainstBrute(t, got, ps, qs, 60)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	ps := uniformPoints(1000, 10, 0)
	ta := buildTree(t, ps, 256)
	empty := buildTree(t, nil, 256)

	if _, _, err := ClosestPair(ta, empty, DefaultOptions(Heap)); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty Q: err = %v", err)
	}
	if _, _, err := ClosestPair(empty, ta, DefaultOptions(Heap)); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty P: err = %v", err)
	}
	if _, _, err := KClosestPairs(ta, ta, 0, DefaultOptions(Heap)); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, _, err := KClosestPairs(ta, ta, -1, DefaultOptions(Heap)); err == nil {
		t.Error("negative k must be rejected")
	}
	bad := DefaultOptions(Heap)
	bad.Algorithm = Algorithm(42)
	if _, _, err := KClosestPairs(ta, ta, 1, bad); err == nil {
		t.Error("invalid algorithm must be rejected")
	}
	// LeafScan(2) was the retired grid scan: it must be rejected, not run
	// as the default sweep.
	bad = DefaultOptions(Heap)
	bad.LeafScan = LeafScan(2)
	if _, _, err := KClosestPairs(ta, ta, 1, bad); err == nil {
		t.Error("retired leaf scan value 2 must be rejected")
	}
}

func TestSinglePointTrees(t *testing.T) {
	ta := buildTree(t, []geom.Point{{X: 0, Y: 0}}, 256)
	tb := buildTree(t, []geom.Point{{X: 3, Y: 4}}, 256)
	for _, alg := range Algorithms() {
		pair, _, err := ClosestPair(ta, tb, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if math.Abs(pair.Dist-5) > 1e-12 {
			t.Fatalf("%v: dist = %g, want 5", alg, pair.Dist)
		}
	}
}

func TestIdenticalDataSets(t *testing.T) {
	// P == Q as separate trees: the closest pair has distance zero.
	ps := uniformPoints(1100, 300, 0)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, ps, 256)
	for _, alg := range Algorithms() {
		pair, _, err := ClosestPair(ta, tb, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if pair.Dist != 0 {
			t.Fatalf("%v: dist = %g, want 0", alg, pair.Dist)
		}
		got, _, err := KClosestPairs(ta, tb, 10, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkAgainstBrute(t, got, ps, ps, 10)
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	// Many coincident points stress tie handling everywhere.
	rng := rand.New(rand.NewSource(1200))
	var ps, qs []geom.Point
	for i := 0; i < 200; i++ {
		p := geom.Point{X: float64(rng.Intn(5)), Y: float64(rng.Intn(5))}
		ps = append(ps, p)
		qs = append(qs, geom.Point{X: p.X + 0.5, Y: p.Y})
	}
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		got, _, err := KClosestPairs(ta, tb, 40, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkAgainstBrute(t, got, ps, qs, 40)
	}
}

func TestSortMethodsAllCorrect(t *testing.T) {
	ps := uniformPoints(1300, 400, 0)
	qs := uniformPoints(1400, 400, 0.7)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, m := range sortx.Methods() {
		opts := DefaultOptions(SortedDistances)
		opts.Sort = m
		got, _, err := KClosestPairs(ta, tb, 20, opts)
		if err != nil {
			t.Fatalf("sort method %v: %v", m, err)
		}
		checkAgainstBrute(t, got, ps, qs, 20)
	}
}

func TestPaperDefaultConfigTrees(t *testing.T) {
	// Sanity on the paper's physical setup (1 KB pages, M=21).
	ps := uniformPoints(1500, 3000, 0)
	qs := uniformPoints(1600, 3000, 0.5)
	ta := buildTree(t, ps, 1024)
	tb := buildTree(t, qs, 1024)
	for _, alg := range []Algorithm{Exhaustive, Simple, SortedDistances, Heap} {
		got, _, err := KClosestPairs(ta, tb, 10, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkAgainstBrute(t, got, ps, qs, 10)
	}
}

func TestPruningReducesWork(t *testing.T) {
	// On disjoint workspaces the pruning chain of the paper must hold on
	// node-pair work: Naive >= EXH >= (roughly) STD and HEAP.
	ps := uniformPoints(1700, 1500, 0)
	qs := uniformPoints(1800, 1500, 0) // x0 = 1-0 = adjacent workspaces
	for i := range qs {
		qs[i].X += 1
	}
	ta := buildTree(t, ps, 1024)
	tb := buildTree(t, qs, 1024)
	work := map[Algorithm]int64{}
	for _, alg := range Algorithms() {
		_, stats, err := ClosestPair(ta, tb, DefaultOptions(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		work[alg] = stats.NodePairsProcessed
	}
	if work[Exhaustive] > work[Naive] {
		t.Errorf("EXH processed %d pairs, Naive %d", work[Exhaustive], work[Naive])
	}
	if work[SortedDistances] > work[Exhaustive] {
		t.Errorf("STD processed %d pairs, EXH %d", work[SortedDistances], work[Exhaustive])
	}
	if work[Heap] > work[Exhaustive] {
		t.Errorf("HEAP processed %d pairs, EXH %d", work[Heap], work[Exhaustive])
	}
	if work[Heap] > work[Naive]/4 {
		t.Errorf("HEAP (%d) should be far below Naive (%d) on disjoint data",
			work[Heap], work[Naive])
	}
}

func TestStatsPopulated(t *testing.T) {
	ps := uniformPoints(1900, 500, 0)
	qs := uniformPoints(2000, 500, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	_, stats, err := KClosestPairs(ta, tb, 5, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses() <= 0 || stats.IOP.Reads <= 0 || stats.IOQ.Reads <= 0 {
		t.Errorf("accesses not recorded: %v", stats)
	}
	if stats.NodePairsProcessed <= 0 || stats.SubPairsGenerated <= 0 ||
		stats.PointPairsCompared <= 0 {
		t.Errorf("work counters not recorded: %v", stats)
	}
	if stats.MaxQueueSize <= 0 {
		t.Errorf("HEAP queue size not recorded: %v", stats)
	}
	if s := stats.String(); s == "" {
		t.Error("empty stats String")
	}
}
