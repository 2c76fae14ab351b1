package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/storage"
)

// layerIndex is one tree the traced run assembles from the layers itself:
// a timedFile under a buffer pool under an R*-tree, exactly as the facade
// builds its indexes.
type layerIndex struct {
	file *timedFile
	disk *storage.DiskFile // nil for in-memory trees
	tree *rtree.Tree
}

func (li *layerIndex) close() error { return li.file.Close() }

// buildLayerIndex bulk loads pts the way cpq.BuildIndex does, returning
// the bulk-load time. With a path the tree is written to disk, closed and
// reopened, as the facade's Close and OpenIndex do.
func buildLayerIndex(cfg config, w workload, pts []geom.Point, path string) (*layerIndex, time.Duration, error) {
	pageSize := rtree.DefaultConfig().PageSize
	pages, stripes := bufferLayout(cfg, w)
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
	}
	li := &layerIndex{}
	if path == "" {
		li.file = &timedFile{PageFile: storage.NewMemFile(pageSize)}
	} else {
		disk, err := storage.CreateDiskFile(path, pageSize)
		if err != nil {
			return nil, 0, err
		}
		li.file, li.disk = &timedFile{PageFile: disk}, disk
	}
	tree, err := rtree.New(storage.NewShardedBufferPool(li.file, pages, stripes, storage.LRU), rtree.DefaultConfig())
	if err != nil {
		return nil, 0, errors.Join(err, li.close())
	}
	t := time.Now()
	if err := tree.BulkLoad(items, bulkFill); err != nil {
		return nil, 0, errors.Join(err, li.close())
	}
	bulk := time.Since(t)
	li.tree = tree
	if path == "" {
		return li, bulk, nil
	}
	if err := errors.Join(tree.Flush(), li.disk.Sync()); err != nil {
		return nil, 0, errors.Join(err, li.close())
	}
	if err := li.close(); err != nil {
		return nil, 0, err
	}
	disk, err := storage.OpenDiskFile(path, pageSize)
	if err != nil {
		return nil, 0, err
	}
	li = &layerIndex{file: &timedFile{PageFile: disk}, disk: disk}
	if li.tree, err = rtree.Open(storage.NewShardedBufferPool(li.file, pages, stripes, storage.LRU)); err != nil {
		return nil, 0, errors.Join(err, li.close())
	}
	return li, bulk, nil
}

// layerAcc sums what the traced run saw over its measured ops.
type layerAcc struct {
	queries         int
	queryMs         []float64
	join, joinReads time.Duration
	fileReads       fileCounters
	stats           core.Stats
	maxQueue        int64

	collect, partition, joinBusy, joinMax, gatherSelf, closeSet time.Duration
	joins, planned, pruned                                      int

	insertUs, deleteUs, flushMs, syncMs []float64
	writeOps                            int
	writeIO, roundWriteIO               fileCounters
}

// layerSystem replays a workload's call sequence on the layers' exported
// functions: core.KClosestPairsContext over rtree trees on timed page
// files, or shard.Partition plus shard.Executor with a timed transport.
// Between begin and end it records per-layer time and counts, a CPU
// profile and a mutex profile.
type layerSystem struct {
	w    workload
	a, b []*layerIndex // per data set
	opts core.Options
	tr   *timedTransport

	measuring   bool
	acc         layerAcc
	cpuProfile  bytes.Buffer
	cpuByLayer  map[string]int64
	lockByLayer map[string]int64
	lockBefore  map[string]int64
}

// files sums the counters of every timed page file.
func (s *layerSystem) files() fileCounters {
	var c fileCounters
	for i := range s.a {
		c = c.plus(s.a[i].file.counters()).plus(s.b[i].file.counters())
	}
	return c
}

func (s *layerSystem) query(ctx context.Context, set int) ([]core.Pair, core.Stats, error) {
	if s.w.shards > 1 {
		return s.shardedQuery(ctx, s.a[set].tree, s.b[set].tree)
	}
	before := s.files()
	t := time.Now()
	pairs, st, err := core.KClosestPairsContext(ctx, s.a[set].tree, s.b[set].tree, s.w.k, s.opts)
	d := time.Since(t)
	if s.measuring && err == nil {
		io := s.files().minus(before)
		s.recordQuery(d, st, io)
		s.acc.join += d
		s.acc.joinReads += time.Duration(io.readNs)
	}
	return pairs, st, err
}

// shardedQuery is the facade's sharded path, step by step: collect both
// trees' items, partition them into tiles, run the executor, close the
// shard set.
func (s *layerSystem) shardedQuery(ctx context.Context, ta, tb *rtree.Tree) ([]core.Pair, core.Stats, error) {
	before := s.files()
	t0 := time.Now()
	itemsA, err := collect(ta)
	if err != nil {
		return nil, core.Stats{}, err
	}
	itemsB, err := collect(tb)
	if err != nil {
		return nil, core.Stats{}, err
	}
	t1 := time.Now()
	set, err := shard.Partition(itemsA, itemsB, shard.Config{Tiles: s.w.shards, Tree: ta.Config()})
	if err != nil {
		return nil, core.Stats{}, err
	}
	t2 := time.Now()
	ex := shard.Executor{Set: set, Transport: s.tr}
	res, err := ex.RunContext(ctx, s.w.k, s.opts)
	t3 := time.Now()
	if err = errors.Join(err, set.Close()); err != nil {
		return nil, core.Stats{}, err
	}
	t4 := time.Now()
	spans := s.tr.take()
	if s.measuring {
		s.recordQuery(t4.Sub(t0), res.Stats, s.files().minus(before))
		var busy, longest time.Duration
		for _, sp := range spans {
			d := sp.end - sp.start
			busy += d
			longest = max(longest, d)
		}
		a := &s.acc
		a.collect += t1.Sub(t0)
		a.partition += t2.Sub(t1)
		a.join += busy
		a.joinBusy += busy
		a.joinMax += longest
		a.joins += len(spans)
		a.gatherSelf += t3.Sub(t2) - covered(spans)
		a.closeSet += t4.Sub(t3)
		a.planned += res.PlannedPairs
		a.pruned += res.PrunedPairs
	}
	return res.Pairs, res.Stats, nil
}

func (s *layerSystem) recordQuery(d time.Duration, st core.Stats, io fileCounters) {
	a := &s.acc
	a.queries++
	a.queryMs = append(a.queryMs, ms(d))
	a.fileReads = a.fileReads.plus(io)
	a.stats.Merge(st)
	a.maxQueue += int64(st.MaxQueueSize)
}

func collect(t *rtree.Tree) ([]rtree.Item, error) {
	out := make([]rtree.Item, 0, t.Len())
	err := t.All(func(it rtree.Item) bool {
		out = append(out, it)
		return true
	})
	return out, err
}

// write runs one insert or delete and records its time and page writes.
func (s *layerSystem) write(fn func() error, into *[]float64) error {
	before := s.files()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	if s.measuring {
		io := s.files().minus(before)
		*into = append(*into, us(d))
		s.acc.writeOps++
		s.acc.writeIO = s.acc.writeIO.plus(io)
		s.acc.roundWriteIO = s.acc.roundWriteIO.plus(io)
	}
	return err
}

func (s *layerSystem) insert(set int, p geom.Point, ref int64) error {
	return s.write(func() error { return s.a[set].tree.InsertPoint(p, ref) }, &s.acc.insertUs)
}

func (s *layerSystem) remove(set int, p geom.Point, ref int64) error {
	return s.write(func() error { return s.a[set].tree.DeletePoint(p, ref) }, &s.acc.deleteUs)
}

// flush is the facade's Flush: the tree header, then an fsync.
func (s *layerSystem) flush(set int) error {
	before := s.files()
	t := time.Now()
	if err := s.a[set].tree.Flush(); err != nil {
		return err
	}
	t1 := time.Now()
	err := s.a[set].disk.Sync()
	t2 := time.Now()
	if s.measuring {
		s.acc.flushMs = append(s.acc.flushMs, ms(t1.Sub(t)))
		s.acc.syncMs = append(s.acc.syncMs, ms(t2.Sub(t1)))
		s.acc.roundWriteIO = s.acc.roundWriteIO.plus(s.files().minus(before))
	}
	return err
}

func (s *layerSystem) begin() error {
	s.measuring = true
	s.acc = layerAcc{}
	runtime.SetMutexProfileFraction(1)
	var err error
	if s.lockBefore, err = mutexByLayer(); err != nil {
		return err
	}
	s.cpuProfile.Reset()
	return pprof.StartCPUProfile(&s.cpuProfile)
}

func (s *layerSystem) end() error {
	pprof.StopCPUProfile()
	s.measuring = false
	lockAfter, err := mutexByLayer()
	runtime.SetMutexProfileFraction(0)
	if err != nil {
		return err
	}
	s.lockByLayer = map[string]int64{}
	for l, v := range lockAfter {
		s.lockByLayer[l] = v - s.lockBefore[l]
	}
	samples, err := parseProfile(s.cpuProfile.Bytes(), "cpu")
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	s.cpuByLayer = byLayer(samples)
	return nil
}

// mutexByLayer returns the process's cumulative mutex wait per layer.
func mutexByLayer() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	samples, err := parseProfile(buf.Bytes(), "delay")
	if err != nil {
		return nil, fmt.Errorf("mutex profile: %w", err)
	}
	return byLayer(samples), nil
}

// traced is the traced run's outcome.
type traced struct {
	*phase
	sys *layerSystem
	// bulk is each data set's bulk-load time for both trees, in ms.
	bulk   []float64
	parity bool
}

// runTraced rebuilds every data set from the layers and replays the
// facade run's op sequence (at most as many ops as ref ran, for at most
// dur). parity reports whether every answer matched ref's and, on the two
// sequential workloads, the paper's counters matched exactly.
func runTraced(ctx context.Context, cfg config, w workload, sets []*dataSet, dur time.Duration, ref *untraced) (*traced, error) {
	sys := &layerSystem{w: w, opts: core.DefaultOptions(core.Heap)}
	closeAll := func() error {
		var errs []error
		for _, li := range append(sys.a, sys.b...) {
			errs = append(errs, li.close())
		}
		sys.a, sys.b = nil, nil
		return errors.Join(errs...)
	}
	defer closeAll() // error paths; the success path checks Close
	res := &traced{sys: sys, parity: true}
	for j, ds := range sets {
		pathA, pathB := indexPaths(cfg, w, "traced-", j)
		a, bulkA, err := buildLayerIndex(cfg, w, ds.p, pathA)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		sys.a = append(sys.a, a)
		b, bulkB, err := buildLayerIndex(cfg, w, ds.q, pathB)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		sys.b = append(sys.b, b)
		res.bulk = append(res.bulk, ms(bulkA+bulkB))
	}
	if w.parallel {
		sys.opts.Parallelism = cfg.nproc
	}
	if w.shards > 1 {
		sys.tr = &timedTransport{inner: shard.InProc{}, epoch: time.Now()}
	}
	sequential := !w.parallel && w.shards <= 1
	verify := func(op, _ int, pairs []core.Pair, st core.Stats, _ *mirror) bool {
		want, wantSt := ref.answers[op], ref.stats[op]
		ok := samePairs(pairs, want)
		if w.parallel {
			// Parallel runs may pick another pair among equal distances.
			ok = sameDistances(pairs, distances(want))
		}
		if sequential {
			ok = ok && st.Accesses() == wantSt.Accesses() &&
				st.NodePairsProcessed == wantSt.NodePairsProcessed &&
				st.SubPairsGenerated == wantSt.SubPairsGenerated &&
				st.PointPairsCompared == wantSt.PointPairsCompared
		}
		res.parity = res.parity && ok
		return ok
	}
	var err error
	if res.phase, err = runOps(ctx, sys, w, sets, dur, len(ref.answers), verify); err != nil {
		return nil, err
	}
	return res, closeAll()
}
