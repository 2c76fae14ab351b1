package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmokeEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("unknown workload %q", sw.Name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			cfg := config{seed: 7, seconds: 0.2, trace: trace == 1, points: 2000, nproc: 2, dir: t.TempDir()}
			res, _, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestOracleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	point := func(grid bool) geom.Point {
		if grid { // coarse lattice: many exact ties and duplicates
			return geom.Point{X: float64(rng.Intn(8)) / 8, Y: float64(rng.Intn(8)) / 8}
		}
		return geom.Point{X: rng.Float64() * 10, Y: rng.NormFloat64()}
	}
	for trial := 0; trial < 200; trial++ {
		grid := trial%3 == 0
		ps := make([]geom.Point, 1+rng.Intn(40))
		qs := make([]geom.Point, 1+rng.Intn(40))
		for i := range ps {
			ps[i] = point(grid)
		}
		for i := range qs {
			qs[i] = point(grid)
		}
		k := 1 + rng.Intn(len(ps)*len(qs)+5)
		want := distances(core.BruteForceKCP(ps, qs, k))
		got := oracleDistances(ps, qs, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d distances, brute force %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d: distance %d = %v, brute force %v", trial, k, i, got[i], want[i])
			}
		}
	}
	if got := oracleDistances([]geom.Point{{X: 1, Y: 1}}, []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}, 5); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("coincident points: %v", got)
	}
}

func TestLayerOfFixedStacks(t *testing.T) {
	const (
		core_  = "repro/internal/core."
		rtree  = "repro/internal/rtree."
		stor   = "repro/internal/storage."
		coreF  = "repro/internal/core/"
		rtreeF = "repro/internal/rtree/"
	)
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.memmove", "runtime/memmove.s"}, {core_ + "(*pairHeap).push", coreF + "heapalg.go"}, {core_ + "(*join).runHeap", coreF + "heapalg.go"}}, "core.heap"},
		{[]frame{{core_ + "(*kHeap).offer", coreF + "kheap.go"}, {core_ + "(*join).scanLeavesSweep", coreF + "sweep.go"}}, "core.heap"},
		{[]frame{{"repro/internal/geom.Metric.MinMinKey", "repro/internal/geom/lp.go"}, {core_ + "(*expansion).computeKeys", coreF + "kernel.go"}}, "core.expand"},
		{[]frame{{"sort.insertionSort", "sort/zsortinterface.go"}, {core_ + "(*join).scanLeavesSweep", coreF + "sweep.go"}}, "core.leafscan"},
		{[]frame{{"sync.(*Mutex).Unlock", "sync/mutex.go"}, {core_ + "(*parHeap).take", coreF + "parallel.go"}}, "core.parallel"},
		{[]frame{{core_ + "KClosestPairsContext", coreF + "cpq.go"}}, "core.other"},
		{[]frame{{"runtime.mallocgc", "runtime/malloc.go"}, {rtree + "decodeNode", rtreeF + "node.go"}, {rtree + "(*Tree).readNodeMut.func1", rtreeF + "tree.go"}}, "rtree.decode"},
		{[]frame{{rtree + "(*Tree).readNodeMut.func1", rtreeF + "tree.go"}, {stor + "(*bufShard).view", "/src/repro/internal/storage/buffer.go"}}, "rtree.other"},
		{[]frame{{"main.(*timedFile).ReadPage", "perfbench/layers.go"}, {stor + "(*bufShard).view", "repro/internal/storage/buffer.go"}, {rtree + "decodeNode", rtreeF + "node.go"}}, "storage"},
		{[]frame{{"sort.Float64s", "sort/sort.go"}, {"repro/internal/shard.bucketize", "repro/internal/shard/partition.go"}}, "shard"},
		{[]frame{{"runtime.scanobject", "runtime/mgcmark.go"}, {"runtime.gcDrain", "runtime/mgcmark.go"}, {"runtime.gcBgMarkWorker", "runtime/mgc.go"}}, "runtime.gc"},
		{[]frame{{"runtime.futex", "runtime/sys_linux_amd64.s"}, {"runtime.schedule", "runtime/proc.go"}}, "other"},
		{[]frame{{"main.samePairs", "perfbench/workload.go"}, {"main.runOps", "perfbench/workload.go"}}, "other"},
	}
	for i, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("case %d: layerOf = %s, want %s", i, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

func TestParseProfileGroupsFixedStacks(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/core.(*pairHeap).push", "repro/internal/core/heapalg.go",
		"repro/internal/geom.Metric.Key", "repro/internal/geom/lp.go",
		"repro/internal/core.(*join).scanLeavesSweep", "repro/internal/core/sweep.go",
		"runtime.gcBgMarkWorker", "runtime/mgc.go"}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.bytes(1, m.b)
	}
	// Sample 1 (packed fields): heap push. Sample 2 (unpacked fields):
	// geom inlined into the sweep, charged to the sweep. Sample 3: GC.
	var s1, s2, s3 pb
	s1.packed(1, 1)
	s1.packed(2, 1, 10_000_000)
	s2.varint(1, 2)
	s2.varint(2, 2)
	s2.varint(2, 20_000_000)
	s3.packed(1, 3)
	s3.packed(2, 1, 5_000_000)
	for _, s := range []pb{s1, s2, s3} {
		prof.bytes(2, s.b)
	}
	location := func(id uint64, fns ...uint64) {
		var loc pb
		loc.varint(1, id)
		for _, fn := range fns {
			var l pb
			l.varint(1, fn)
			l.varint(2, 42)
			loc.bytes(4, l.b)
		}
		prof.bytes(4, loc.b)
	}
	location(1, 1)
	location(2, 2, 3) // geom.Metric.Key inlined into scanLeavesSweep
	location(3, 4)
	for id, f := range [][2]uint64{{5, 6}, {7, 8}, {9, 10}, {11, 12}} {
		var fn pb
		fn.varint(1, uint64(id+1))
		fn.varint(2, f[0])
		fn.varint(4, f[1])
		prof.bytes(5, fn.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	got := byLayer(samples)
	want := map[string]int64{"core.heap": 10_000_000, "core.leafscan": 20_000_000, "runtime.gc": 5_000_000}
	if len(got) != len(want) {
		t.Fatalf("byLayer = %v, want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("byLayer[%s] = %d, want %d", l, got[l], v)
		}
	}
	if _, err := parseProfile(gz.Bytes(), "delay"); err == nil {
		t.Error("parseProfile accepted a missing sample type")
	}
}

func TestTailAndCovered(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(60 - i)
	}
	if v, pct := tail(xs); v != 50 || pct != 100*50.0/60 {
		t.Errorf("tail = %v at %v%%, want 50 at %v%%", v, pct, 100*50.0/60)
	}
	if v, pct := tail(xs[:5]); v != 60 || pct != 100 {
		t.Errorf("short tail = %v at %v%%, want the maximum at 100%%", v, pct)
	}
	ms := time.Millisecond
	spans := []interval{{5 * ms, 9 * ms}, {0, 2 * ms}, {1 * ms, 3 * ms}, {6 * ms, 7 * ms}}
	if got := covered(spans); got != 7*ms {
		t.Errorf("covered = %v, want 7ms", got)
	}
}
