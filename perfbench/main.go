// Command perfbench is the repository's end-to-end K-CPQ benchmark. It
// drives the public cpq facade from BuildIndex/OpenIndex through
// KClosestPairs to the returned pairs, checks every answer against a grid
// oracle, and, with --trace 1, replays the same op sequence on the
// layers' exported functions to split each query into storage, rtree,
// core and shard time. See README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload uniform-k100-seq --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// pointsPerTree is the size of each tree in every workload.
const pointsPerTree = 100_000

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	points  int // points per tree; pointsPerTree except in the tests' tiny runs
	nproc   int // engine and executor concurrency
	dir     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds (split evenly between the untraced and traced runs with --trace 1)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "directory for on-disk index files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, points: pointsPerTree,
		nproc: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), dir: scratch,
	}
	res, table, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range table {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// runWorkload runs one workload and returns the result line plus a
// human-readable table of every metric measured, with units.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, []string, error) {
	sets := makeSets(w, cfg.seed, cfg.points)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	ref, err := runUntraced(ctx, cfg, w, sets, dur)
	if err != nil {
		return nil, nil, err
	}
	e2e, extra := endToEnd(ref)
	res := &result{Attempted: ref.attempted, Failed: ref.failed, Metrics: e2e}
	var table []string
	add := func(set map[string]metric) {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			table = append(table, fmt.Sprintf("# %-28s %14.6g %s", n, set[n].Value, set[n].Unit))
		}
	}
	table = append(table, fmt.Sprintf("# workload %s seed %d sets %d points %d nproc %d", w.name, cfg.seed, w.sets, cfg.points, cfg.nproc))
	add(e2e)
	if !cfg.trace {
		add(extra) // with tracing they are listed with the per-layer metrics
	}
	parity := true
	if cfg.trace {
		// The facade run's indexes are closed; collect them so the traced
		// run's builds reuse their memory.
		runtime.GC()
		tr, err := runTraced(ctx, cfg, w, sets, dur, ref)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		parity = tr.parity
		layers := perLayer(ref, tr)
		for n, m := range extra {
			layers[n] = m
		}
		table = append(table, "# per layer (traced run)")
		add(layers)
		res.Metrics = layers
	}
	res.Correct = res.Failed == 0 && parity
	if !parity {
		table = append(table, "# traced run rejected: its answers or counters differ from the facade run")
	}
	return res, table, nil
}

// endToEnd returns the gated end-to-end metrics, which are never zero,
// and the facade-run metrics that are zero on some workloads.
func endToEnd(u *untraced) (gated, extra map[string]metric) {
	tailMs, tailPct := tail(u.queryMs)
	n := float64(u.measured)
	gated = map[string]metric{
		"setup_s":                 {median(u.setupS), "s"},
		"query_p50_ms":            {median(u.queryMs), "ms"},
		"query_tail_ms":           {tailMs, "ms"},
		"ops_per_s":               {ratio(n, u.busy.Seconds()), "1/s"},
		"page_requests_per_query": {ratio(float64(u.pageRequests), n), "count"},
		"alloc_bytes_per_op":      {ratio(float64(u.allocBytes), n), "B"},
		"index_bytes_per_point":   {u.indexBytesPerPoint, "B"},
	}
	writeTail, _ := tail(u.writeUs)
	extra = map[string]metric{
		"query_tail_pct":     {tailPct, "%"},
		"query_samples":      {n, "count"},
		"accesses_per_query": {ratio(float64(u.accesses), n), "count"},
		"error_rate":         {ratio(float64(u.failed), float64(u.attempted)), "ratio"},
		"write_p50_us":       {median(u.writeUs), "us"},
		"write_tail_us":      {writeTail, "us"},
		"flush_p50_ms":       {median(u.flushMs), "ms"},
	}
	return gated, extra
}

// perLayer returns the traced run's per-layer metrics, per query (per
// round on the mixed workload) unless the name says otherwise.
func perLayer(u *untraced, tr *traced) map[string]metric {
	a := &tr.sys.acc
	q := float64(a.queries)
	perQ := func(v float64) float64 { return ratio(v, q) }
	perQms := func(d time.Duration) float64 { return ratio(ms(d), q) }
	st := a.stats
	hits := st.IOP.Hits + st.IOQ.Hits
	misses := st.IOP.Reads + st.IOQ.Reads
	m := map[string]metric{
		"storage.read_ms":            {perQ(ms(time.Duration(a.fileReads.readNs))), "ms"},
		"storage.page_reads":         {perQ(float64(misses)), "count"},
		"storage.hit_ratio":          {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"storage.evictions":          {perQ(float64(st.IOP.Evictions + st.IOQ.Evictions)), "count"},
		"storage.write_ms":           {perQ(ms(time.Duration(a.roundWriteIO.writeNs))), "ms"},
		"storage.writes_per_op":      {ratio(float64(a.writeIO.writes), float64(a.writeOps)), "count"},
		"storage.sync_ms":            {median(a.syncMs), "ms"},
		"rtree.insert_us":            {median(a.insertUs), "us"},
		"rtree.delete_us":            {median(a.deleteUs), "us"},
		"rtree.flush_ms":             {median(a.flushMs), "ms"},
		"rtree.bulkload_ms":          {median(tr.bulk), "ms"},
		"core.heap_batches":          {perQ(float64(st.HeapBatches)), "count"},
		"core.join_ms":               {perQms(a.join), "ms"},
		"core.self_ms":               {perQms(a.join - a.joinReads), "ms"},
		"core.node_pairs":            {perQ(float64(st.NodePairsProcessed)), "count"},
		"core.sub_pairs":             {perQ(float64(st.SubPairsGenerated)), "count"},
		"core.prune_ratio":           {ratio(float64(st.SubPairsPruned), float64(st.SubPairsGenerated)), "ratio"},
		"core.point_pairs":           {perQ(float64(st.PointPairsCompared)), "count"},
		"core.max_queue":             {perQ(float64(a.maxQueue)), "count"},
		"shard.collect_ms":           {perQms(a.collect), "ms"},
		"shard.partition_ms":         {perQms(a.partition), "ms"},
		"shard.join_busy_ms":         {perQms(a.joinBusy), "ms"},
		"shard.join_max_ms":          {perQms(a.joinMax), "ms"},
		"shard.joins":                {perQ(float64(a.joins)), "count"},
		"shard.prune_ratio":          {ratio(float64(a.pruned), float64(a.planned)), "ratio"},
		"shard.gather_self_ms":       {perQms(a.gatherSelf), "ms"},
		"shard.close_ms":             {perQms(a.closeSet), "ms"},
		"trace.overhead":             {ratio(median(a.queryMs), median(u.queryMs)), "ratio"},
		"storage.lock_wait_ms":       {perQms(time.Duration(tr.sys.lockByLayer["storage"])), "ms"},
		"core.parallel.lock_wait_ms": {perQms(time.Duration(tr.sys.lockByLayer["core.parallel"])), "ms"},
	}
	for _, l := range cpuLayers {
		m[l+".cpu_ms"] = metric{perQms(time.Duration(tr.sys.cpuByLayer[l])), "ms"}
	}
	return m
}
