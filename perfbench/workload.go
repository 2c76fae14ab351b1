package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	cpq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// workload is one benchmark scenario. Both trees hold config.points points
// and are STR bulk-loaded at fill bulkFill; every loop has one closed-loop
// client. README.md gives the reason each workload exists.
type workload struct {
	name      string
	clustered bool
	k         int
	// sets is the number of independent data sets a run cycles its ops
	// over (see dataSet).
	sets int
	// parallel runs the query WithParallelism(nproc) over buffer pools
	// that hold the whole tree, striped nproc ways.
	parallel bool
	// shards > 1 runs the query WithShards(shards).
	shards int
	// mixed keeps the trees on disk; each op is a round of one query,
	// roundWrites inserts into P, roundWrites deletes of the previous
	// round's inserts on the same set, and one Flush of P.
	mixed bool
}

const (
	bulkFill    = 0.7
	roundWrites = 50
	// minSetups is the fewest index-pair builds setup_s is the median of.
	// One build's time strays about ±20% within a run, so setup_s takes
	// many.
	minSetups = 16
	// defaultBufferPages is the facade's default buffer size per tree.
	defaultBufferPages = 128
)

// One uniform data set's query cost strays about ±12% from the
// seed-to-seed median, one clustered data set's about ±1%, hence more sets
// on uniform data. ondisk-mixed stops at 4: its setup writes and fsyncs
// every tree, and more files add filesystem noise to its timings.
var workloads = []workload{
	{name: "uniform-k100-seq", k: 100, sets: 8},
	{name: "clustered-k1-par", clustered: true, k: 1, parallel: true, sets: 2},
	{name: "ondisk-mixed", k: 10, mixed: true, sets: 4},
	{name: "clustered-k100-sharded", clustered: true, k: 100, shards: 8, sets: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bufferLayout returns a tree's buffer capacity in pages and its
// lock-stripe count.
func bufferLayout(cfg config, w workload) (pages, stripes int) {
	if w.parallel {
		// A tree of n points has at most n+1 pages, its meta page included.
		return cfg.points + 1, cfg.nproc
	}
	return defaultBufferPages, 1
}

// dataSet is one independent pair of generated point sets. A run cycles
// its ops over workload.sets of them, because the cost of one K-CPQ
// depends on its input: averaging several inputs keeps one run's figures
// close to the next run's.
type dataSet struct {
	seed int64
	p, q []geom.Point
}

// makeSets generates the data sets of one run from its seed.
func makeSets(w workload, seed int64, n int) []*dataSet {
	gen := dataset.Uniform
	if w.clustered {
		gen = dataset.Clustered
	}
	sets := make([]*dataSet, w.sets)
	for j := range sets {
		base := seed*1024 + int64(j)
		sets[j] = &dataSet{seed: base, p: gen(2*base+1, n), q: gen(2*base+2, n)}
	}
	return sets
}

// roundPoints returns the points round r of the mixed workload inserts
// into the set's P and the record id of the first; the rest follow
// consecutively.
func (ds *dataSet) roundPoints(r int) ([]geom.Point, int64) {
	rng := rand.New(rand.NewSource((ds.seed+1)*1_000_003 + int64(r)))
	pts := make([]geom.Point, roundWrites)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts, int64(len(ds.p) + r*roundWrites)
}

// mirror tracks the points one set's P holds while the mixed workload
// writes.
type mirror struct {
	base  []geom.Point
	extra map[int64]geom.Point
}

func (m *mirror) len() int { return len(m.base) + len(m.extra) }

// oracle returns the k smallest distances between the points P holds and
// qs. Deletes only ever remove inserted points, so the answer is the k
// smallest of baseTop (the oracle over m.base, computed once) and the
// oracle over the inserted points.
func (m *mirror) oracle(baseTop []float64, qs []geom.Point, k int) []float64 {
	extra := make([]geom.Point, 0, len(m.extra))
	for _, p := range m.extra {
		extra = append(extra, p)
	}
	all := append(append([]float64(nil), baseTop...), oracleDistances(qs, extra, k)...)
	sort.Float64s(all)
	return all[:min(k, len(all))]
}

// system is what a benchmark loop drives: the public facade on the
// untraced run, the layers' exported functions on the traced run. set
// selects the data set an op runs on.
type system interface {
	query(ctx context.Context, set int) ([]core.Pair, core.Stats, error)
	insert(set int, p geom.Point, ref int64) error
	remove(set int, p geom.Point, ref int64) error
	flush(set int) error
	// begin is called once after the warm-up ops, end after the last op.
	begin() error
	end() error
}

// verifier checks the query answer of op number op on data set set; live
// tracks the points that set's P holds at that moment.
type verifier func(op, set int, pairs []core.Pair, st core.Stats, live *mirror) bool

// phase is what one loop measured. Warm-up ops are not measured, but
// their answers are still checked and recorded.
type phase struct {
	queryMs, writeUs, flushMs []float64
	answers                   [][]core.Pair
	stats                     []core.Stats
	// measured ops (queries; rounds on the mixed workload), the time spent
	// inside the system's calls and the heap bytes those calls allocated.
	measured   int
	busy       time.Duration
	allocBytes uint64
	// accesses (pool misses) and page requests (hits + misses) summed
	// over the measured queries.
	accesses, pageRequests int64
	attempted, failed      int64
	live                   []*mirror
}

// allocSample reads the cumulative heap allocation counter without
// stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// meter accumulates the time and allocations of calls into the system.
type meter struct {
	busy  time.Duration
	alloc uint64
}

func (m *meter) call(fn func() error) (time.Duration, error) {
	a := heapAllocs()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	m.alloc += heapAllocs() - a
	m.busy += d
	return d, err
}

// runOps drives sys with one closed-loop client, op i running on data
// set i mod len(sets). The first op on each set is an unmeasured warm-up.
// At the end of a cycle over the sets it stops once dur has passed or
// maxOps ops ran (maxOps <= 0: no cap; otherwise a multiple of
// len(sets)). Failed calls and rejected answers count in phase.failed.
func runOps(ctx context.Context, sys system, w workload, sets []*dataSet, dur time.Duration, maxOps int, verify verifier) (*phase, error) {
	ph := &phase{}
	for _, ds := range sets {
		ph.live = append(ph.live, &mirror{base: ds.p, extra: map[int64]geom.Point{}})
	}
	var started time.Time
	for op := 0; ; op++ {
		set := op % len(sets)
		measured := op >= len(sets)
		if op == len(sets) {
			if err := sys.begin(); err != nil {
				return nil, err
			}
			started = time.Now()
		}
		var m meter
		var pairs []core.Pair
		var st core.Stats
		d, err := m.call(func() (err error) {
			pairs, st, err = sys.query(ctx, set)
			return err
		})
		ph.attempted++
		if err != nil || !verify(op, set, pairs, st, ph.live[set]) {
			ph.failed++
		}
		ph.answers = append(ph.answers, pairs)
		ph.stats = append(ph.stats, st)
		if measured {
			ph.queryMs = append(ph.queryMs, ms(d))
			ph.accesses += st.Accesses()
			ph.pageRequests += st.IOP.Hits + st.IOP.Reads + st.IOQ.Hits + st.IOQ.Reads
		}
		if w.mixed {
			ph.mixedRound(sys, sets[set], set, op/len(sets), measured, &m)
		}
		if measured {
			ph.measured++
			ph.busy += m.busy
			ph.allocBytes += m.alloc
		}
		// Stop only after whole cycles, so every set weighs the same.
		cycleDone := (op+1)%len(sets) == 0
		if measured && cycleDone && (time.Since(started) >= dur || (maxOps > 0 && op+1 >= maxOps)) {
			break
		}
	}
	return ph, sys.end()
}

// mixedRound runs the write part of round r on a data set: insert this
// round's points, delete the previous round's, flush.
func (ph *phase) mixedRound(sys system, ds *dataSet, set, r int, measured bool, m *meter) {
	live := ph.live[set]
	write := func(fn func() error) error {
		d, err := m.call(fn)
		ph.attempted++
		if err != nil {
			ph.failed++
		}
		if measured {
			ph.writeUs = append(ph.writeUs, us(d))
		}
		return err
	}
	pts, ref0 := ds.roundPoints(r)
	for i, p := range pts {
		if write(func() error { return sys.insert(set, p, ref0+int64(i)) }) == nil {
			live.extra[ref0+int64(i)] = p
		}
	}
	if r > 0 {
		prev, prevRef0 := ds.roundPoints(r - 1)
		for i, p := range prev {
			if write(func() error { return sys.remove(set, p, prevRef0+int64(i)) }) == nil {
				delete(live.extra, prevRef0+int64(i))
			}
		}
	}
	d, err := m.call(func() error { return sys.flush(set) })
	ph.attempted++
	if err != nil {
		ph.failed++
	}
	if measured {
		ph.flushMs = append(ph.flushMs, ms(d))
	}
}

// facadeSystem drives the public cpq API, as a user would.
type facadeSystem struct {
	w    workload
	idx  []indexPair
	opts []cpq.QueryOption
}

// indexPair is one data set's two indexes.
type indexPair struct{ p, q *cpq.Index }

func (ip indexPair) close() error { return errors.Join(ip.p.Close(), ip.q.Close()) }

func (s *facadeSystem) query(ctx context.Context, set int) ([]core.Pair, core.Stats, error) {
	return cpq.KClosestPairsContext(ctx, s.idx[set].p, s.idx[set].q, s.w.k, s.opts...)
}
func (s *facadeSystem) insert(set int, p geom.Point, ref int64) error {
	return s.idx[set].p.Insert(p, ref)
}
func (s *facadeSystem) remove(set int, p geom.Point, ref int64) error {
	return s.idx[set].p.Delete(p, ref)
}
func (s *facadeSystem) flush(set int) error { return s.idx[set].p.Flush() }
func (s *facadeSystem) begin() error        { return nil }
func (s *facadeSystem) end() error          { return nil }

func queryOptions(cfg config, w workload) []cpq.QueryOption {
	switch {
	case w.parallel:
		return []cpq.QueryOption{cpq.WithParallelism(cfg.nproc)}
	case w.shards > 1:
		return []cpq.QueryOption{cpq.WithShards(w.shards)}
	}
	return nil
}

func indexOptions(cfg config, w workload) []cpq.IndexOption {
	pages, stripes := bufferLayout(cfg, w)
	return []cpq.IndexOption{cpq.WithBulkLoad(bulkFill), cpq.WithBufferPages(pages), cpq.WithBufferShards(stripes)}
}

// untraced is the facade run: the end-to-end metrics.
type untraced struct {
	*phase
	setupS             []float64
	indexBytesPerPoint float64
}

// indexPaths returns the on-disk file names of one data set's indexes
// (empty for in-memory workloads).
func indexPaths(cfg config, w workload, prefix string, set int) (string, string) {
	if !w.mixed {
		return "", ""
	}
	return filepath.Join(cfg.dir, fmt.Sprintf("%sp%d.idx", prefix, set)),
		filepath.Join(cfg.dir, fmt.Sprintf("%sq%d.idx", prefix, set))
}

// runUntraced builds every data set's indexes (timing each pair's build),
// then drives them through the facade for dur, checking every answer
// against the oracle.
func runUntraced(ctx context.Context, cfg config, w workload, sets []*dataSet, dur time.Duration) (*untraced, error) {
	res := &untraced{}
	sys := &facadeSystem{w: w, opts: queryOptions(cfg, w)}
	closeAll := func() error {
		var errs []error
		for _, ip := range sys.idx {
			if ip.p != nil {
				errs = append(errs, ip.close())
			}
		}
		sys.idx = nil
		return errors.Join(errs...)
	}
	defer closeAll() // error paths; the success path checks Close

	runtime.GC()
	before := liveHeap()
	var points, fileSize int64
	// Each pair is built minSetups/len(sets) times, rounded up, keeping
	// the last build, so setup_s is always a median of minSetups or more.
	builds := (minSetups + len(sets) - 1) / len(sets)
	for j, ds := range sets {
		var ip indexPair
		for b := 0; b < builds; b++ {
			if ip.p != nil {
				if err := ip.close(); err != nil {
					return nil, err
				}
			}
			runtime.GC()
			t := time.Now()
			var err error
			if ip, err = buildPair(cfg, w, ds, j); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			res.setupS = append(res.setupS, time.Since(t).Seconds())
		}
		sys.idx = append(sys.idx, ip)
		points += int64(len(ds.p) + len(ds.q))
		if w.mixed {
			size, err := fileBytes(indexPaths(cfg, w, "", j))
			if err != nil {
				return nil, err
			}
			fileSize += size
		}
	}
	runtime.GC()
	res.indexBytesPerPoint = float64(liveHeap()-before) / float64(points)
	if w.mixed {
		res.indexBytesPerPoint = float64(fileSize) / float64(points)
	}

	verify, err := oracleVerifier(ctx, w, sets, sys.idx)
	if err != nil {
		return nil, err
	}
	if res.phase, err = runOps(ctx, sys, w, sets, dur, 0, verify); err != nil {
		return nil, err
	}
	if w.mixed {
		for j, ds := range sets {
			res.attempted++
			if err := reopenCheck(ctx, cfg, w, ds, j, res.live[j], &sys.idx[j]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: reopen check: %v\n", err)
				res.failed++
			}
		}
	}
	return res, closeAll()
}

// buildPair builds one data set's two indexes. On-disk trees are written,
// closed and reopened, so queries start from what a restarted process
// would see.
func buildPair(cfg config, w workload, ds *dataSet, set int) (indexPair, error) {
	pathP, pathQ := indexPaths(cfg, w, "", set)
	build := func(pts []geom.Point, path string) (*cpq.Index, error) {
		if path == "" {
			return cpq.BuildIndex(pts, indexOptions(cfg, w)...)
		}
		idx, err := cpq.BuildIndex(pts, append(indexOptions(cfg, w), cpq.WithPath(path))...)
		if err != nil {
			return nil, err
		}
		if err := idx.Close(); err != nil {
			return nil, err
		}
		return cpq.OpenIndex(path, indexOptions(cfg, w)...)
	}
	p, err := build(ds.p, pathP)
	if err != nil {
		return indexPair{}, err
	}
	q, err := build(ds.q, pathQ)
	if err != nil {
		return indexPair{}, errors.Join(err, p.Close())
	}
	return indexPair{p, q}, nil
}

// reopenCheck closes one set's on-disk indexes and reopens them, then
// checks the point count, the tree invariants and one query against the
// oracle. The reopened indexes replace *ip so the caller closes them.
func reopenCheck(ctx context.Context, cfg config, w workload, ds *dataSet, set int, live *mirror, ip *indexPair) error {
	err := ip.close()
	*ip = indexPair{}
	if err != nil {
		return err
	}
	pathP, pathQ := indexPaths(cfg, w, "", set)
	p, err := cpq.OpenIndex(pathP, indexOptions(cfg, w)...)
	if err != nil {
		return err
	}
	q, err := cpq.OpenIndex(pathQ, indexOptions(cfg, w)...)
	if err != nil {
		return errors.Join(err, p.Close())
	}
	*ip = indexPair{p, q}
	if got := p.Len(); got != int64(live.len()) {
		return fmt.Errorf("reopened P holds %d points, want %d", got, live.len())
	}
	if err := errors.Join(p.CheckInvariants(), q.CheckInvariants()); err != nil {
		return err
	}
	pairs, _, err := cpq.KClosestPairsContext(ctx, p, q, w.k)
	if err != nil {
		return err
	}
	if !sameDistances(pairs, live.oracle(oracleDistances(ds.p, ds.q, w.k), ds.q, w.k)) {
		return errors.New("reopened query disagrees with the oracle")
	}
	return nil
}

// oracleVerifier checks each answer's K distances against the grid oracle
// over the points the indexes hold; the sharded workload's answers must
// also equal the monolithic facade answer bit for bit.
func oracleVerifier(ctx context.Context, w workload, sets []*dataSet, idx []indexPair) (verifier, error) {
	mono := make([][]core.Pair, len(sets))
	static := make([][]float64, len(sets))
	for j, ds := range sets {
		static[j] = oracleDistances(ds.p, ds.q, w.k)
		if w.shards > 1 {
			var err error
			if mono[j], _, err = cpq.KClosestPairsContext(ctx, idx[j].p, idx[j].q, w.k); err != nil {
				return nil, fmt.Errorf("monolithic reference query: %w", err)
			}
		}
	}
	return func(_, set int, pairs []core.Pair, _ core.Stats, live *mirror) bool {
		want := static[set]
		if w.mixed {
			want = live.oracle(want, sets[set].q, w.k)
		}
		return sameDistances(pairs, want) && (w.shards <= 1 || samePairs(pairs, mono[set]))
	}, nil
}

func sameDistances(pairs []core.Pair, want []float64) bool {
	if len(pairs) != len(want) {
		return false
	}
	for i, p := range pairs {
		if p.Dist != want[i] {
			return false
		}
	}
	return true
}

func distances(pairs []core.Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = p.Dist
	}
	return out
}

// samePairs reports whether two answers are bit-identical: points, record
// ids and distances, in order.
func samePairs(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.RefP != y.RefP || x.RefQ != y.RefQ || bits(x.Dist) != bits(y.Dist) ||
			bits(x.P.X) != bits(y.P.X) || bits(x.P.Y) != bits(y.P.Y) ||
			bits(x.Q.X) != bits(y.Q.X) || bits(x.Q.Y) != bits(y.Q.Y) {
			return false
		}
	}
	return true
}

// liveHeap returns the bytes of live heap objects; call after runtime.GC.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func fileBytes(paths ...string) (int64, error) {
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
