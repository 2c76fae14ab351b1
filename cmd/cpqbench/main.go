// Command cpqbench regenerates the tables and figures of the paper's
// experimental study (Sections 4 and 5). Each figure of the paper maps to
// one experiment; see DESIGN.md for the full index.
//
// Usage:
//
//	cpqbench                       # run every experiment at full scale
//	cpqbench -experiment fig4      # one experiment
//	cpqbench -quick                # 1/10 cardinalities (smoke run)
//	cpqbench -scale 0.25           # custom scale
//	cpqbench -parallel 4           # 4 HEAP workers (0 = GOMAXPROCS)
//	cpqbench -leafscan brute       # force a leaf scan strategy on every run
//	cpqbench -nodecache 4096       # attach a decoded-node cache to every tree
//	cpqbench -shards 8             # run every query sharded over 8 STR tiles
//	cpqbench -pr4 BENCH_PR4.json   # run the leafscan ablation, write its report
//	cpqbench -pr9 BENCH_PR9.json   # run the sharding gate, write its report
//	cpqbench -pr10 BENCH_PR10.json # run the explain-overhead gate, write its report
//	cpqbench -explain              # capture EXPLAIN per query, print the last query's tree
//	cpqbench -timeout 2m           # wall-clock budget (or CPQ_TIMEOUT); exits 3 with partial totals
//	cpqbench -trace trace.jsonl    # write every query's trace events as JSON lines
//	cpqbench -metrics-addr :9090   # serve /metrics (Prometheus text) and /debug/vars
//	cpqbench -pprof                # with -metrics-addr, also mount /debug/pprof/
//	cpqbench -json                 # one JSON summary object per experiment
//	cpqbench -list                 # list experiments
//	cpqbench -out results.txt      # also write output to a file
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// envTimeout reads the CPQ_TIMEOUT environment knob, the -timeout flag's
// default. A malformed value aborts the run rather than silently running
// without the budget the caller asked for.
func envTimeout() time.Duration {
	v := os.Getenv("CPQ_TIMEOUT")
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		fatal(fmt.Errorf("CPQ_TIMEOUT: %w", err))
	}
	return d
}

// envShards reads the CPQ_SHARDS environment knob, the -shards flag's
// default. A malformed value aborts the run.
func envShards() int {
	v := os.Getenv("CPQ_SHARDS")
	if v == "" {
		return 0
	}
	var n int
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		fatal(fmt.Errorf("CPQ_SHARDS: %w", err))
	}
	return n
}

// summary is the -json record emitted per experiment: wall time plus the
// aggregated statistics of every query the experiment ran.
type summary struct {
	Experiment string       `json:"experiment"`
	Title      string       `json:"title"`
	Parallel   int          `json:"parallel"`
	WallMS     float64      `json:"wall_ms"`
	Totals     bench.Totals `json:"totals"`
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (default: all); see -list")
		quick      = flag.Bool("quick", false, "scale cardinalities down to 1/10 for a fast smoke run")
		scale      = flag.Float64("scale", 1.0, "cardinality scale factor (1.0 = the paper's sizes)")
		parallel   = flag.Int("parallel", 1, "HEAP worker count for experiments that don't pick their own; 1 = the paper's sequential algorithm, 0 = GOMAXPROCS")
		leafScan   = flag.String("leafscan", "", "force a leaf scan strategy on every run: sweep or brute (default: per-experiment choice)")
		nodeCache  = flag.Int("nodecache", 0, "decoded-node cache capacity (nodes per tree) attached to experiment trees; 0 = no cache (the paper's exact disk accounting)")
		shards     = flag.Int("shards", envShards(), "run every query sharded over this many STR tiles (scatter-gather executor); <= 1 = the monolithic join (default from CPQ_SHARDS)")
		pr4        = flag.String("pr4", "", "run the leafscan ablation and write its JSON report to this file")
		pr9        = flag.String("pr9", "", "run the pr9 sharding gate and write its JSON report to this file")
		pr10       = flag.String("pr10", "", "run the pr10 explain-overhead gate and write its JSON report to this file")
		explainOn  = flag.Bool("explain", false, "attach an EXPLAIN capture to every query and print the last query's plan+execution tree at the end")
		traceFile  = flag.String("trace", "", "write every query's trace events to this file as JSON lines")
		metricsAt  = flag.String("metrics-addr", "", "serve engine metrics on this address (/metrics Prometheus text, /debug/vars expvar)")
		pprofOn    = flag.Bool("pprof", false, "with -metrics-addr, also mount net/http/pprof under /debug/pprof/")
		jsonOut    = flag.Bool("json", false, "emit one JSON summary per experiment on stdout (tables go only to -out)")
		list       = flag.Bool("list", false, "list available experiments and exit")
		out        = flag.String("out", "", "also write the report to this file")
		timeout    = flag.Duration("timeout", envTimeout(), "wall-clock budget for the whole run; queries observe it via context and the run exits non-zero with partial totals (0 = none; default from CPQ_TIMEOUT)")
	)
	flag.Parse()

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		bench.SetDefaultContext(ctx)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}

	workers := *parallel
	if workers <= 0 {
		bench.SetDefaultParallelism(core.AutoParallelism)
		workers = runtime.GOMAXPROCS(0)
	} else {
		bench.SetDefaultParallelism(workers)
	}

	switch *leafScan {
	case "":
	case "sweep":
		bench.SetDefaultLeafScan(core.LeafScanSweep)
	case "brute":
		bench.SetDefaultLeafScan(core.LeafScanBrute)
	default:
		fatal(fmt.Errorf("unknown -leafscan %q; want sweep or brute", *leafScan))
	}
	if *nodeCache > 0 {
		bench.SetDefaultNodeCache(*nodeCache)
	}
	if *shards > 1 {
		bench.SetDefaultShards(*shards)
	}
	if *explainOn {
		bench.SetDefaultExplain(true)
	}

	var tracer *obs.JSONLWriter
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracer = obs.NewJSONLWriter(f)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "cpqbench: trace:", err)
			}
		}()
		bench.SetDefaultTracer(tracer)
	}
	if *metricsAt != "" {
		reg := obs.Default()
		bench.SetDefaultMetrics(obs.NewEngineMetrics(reg))
		reg.PublishExpvar("cpq")
		mux := obs.NewServeMux(reg, *pprofOn)
		go func() {
			if err := http.ListenAndServe(*metricsAt, mux); err != nil {
				fmt.Fprintln(os.Stderr, "cpqbench: metrics server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "cpqbench: serving metrics on %s/metrics\n", *metricsAt)
	} else if *pprofOn {
		fatal(fmt.Errorf("-pprof requires -metrics-addr"))
	}

	s := *scale
	if *quick {
		s = 0.1
	}
	lab := bench.NewLab(s)

	// In -json mode stdout carries only the JSON records; the human tables
	// go to the -out file if one was given, and are dropped otherwise.
	var w io.Writer = os.Stdout
	if *jsonOut {
		w = io.Discard
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if *jsonOut {
			w = f
		} else {
			w = io.MultiWriter(os.Stdout, f)
		}
	}

	toRun := bench.Experiments()
	if *experiment != "" {
		toRun = nil
		for _, name := range strings.Split(*experiment, ",") {
			e, ok := bench.ByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q; available: %s",
					name, strings.Join(bench.Names(), ", ")))
			}
			toRun = append(toRun, e)
		}
	}
	// -pr4/-pr9/-pr10 need their experiments; append them if not selected.
	for _, need := range []struct {
		flagVal string
		exp     string
	}{{*pr4, "leafscan"}, {*pr9, "pr9"}, {*pr10, "pr10"}} {
		if need.flagVal == "" {
			continue
		}
		found := false
		for _, e := range toRun {
			if e.Name == need.exp {
				found = true
				break
			}
		}
		if !found {
			e, _ := bench.ByName(need.exp)
			toRun = append(toRun, e)
		}
	}

	fmt.Fprintf(w, "cpqbench — Closest Pair Queries in Spatial Databases (SIGMOD 2000) reproduction\n")
	fmt.Fprintf(w, "scale %.3g; page size 1KB, M=21, m=7; disk accesses = buffer misses (B/2 pages per tree)\n\n", s)

	enc := json.NewEncoder(os.Stdout)
	start := time.Now()
	for _, e := range toRun {
		fmt.Fprintf(w, "=== %s: %s ===\n\n", e.Name, e.Title)
		bench.ResetTotals()
		expStart := time.Now()
		if err := e.Run(lab, w); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				t := bench.CurrentTotals()
				fmt.Fprintf(os.Stderr,
					"cpqbench: %s: wall-clock budget of %s exhausted after %s; partial totals: %d queries, %d disk accesses, %d node pairs\n",
					e.Name, *timeout, time.Since(start).Round(time.Millisecond),
					t.Queries, t.Accesses, t.NodePairs)
				os.Exit(3)
			}
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		if *jsonOut {
			if err := enc.Encode(summary{
				Experiment: e.Name,
				Title:      e.Title,
				Parallel:   workers,
				WallMS:     float64(time.Since(expStart).Microseconds()) / 1000,
				Totals:     bench.CurrentTotals(),
			}); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))

	if *pr4 != "" {
		rep := bench.LeafScanReport()
		if rep == nil {
			fatal(fmt.Errorf("leafscan ablation produced no report"))
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*pr4, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "wrote leafscan report to %s\n", *pr4)
	}
	if *pr9 != "" {
		rep := bench.PR9LastReport()
		if rep == nil {
			fatal(fmt.Errorf("pr9 sharding gate produced no report"))
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*pr9, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "wrote pr9 report to %s\n", *pr9)
	}
	if *pr10 != "" {
		rep := bench.PR10LastReport()
		if rep == nil {
			fatal(fmt.Errorf("pr10 explain gate produced no report"))
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*pr10, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "wrote pr10 report to %s\n", *pr10)
	}
	if *explainOn {
		if snap := bench.LastExplain(); snap != nil {
			fmt.Fprintf(w, "\nEXPLAIN of the last query:\n%s", snap.Render())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpqbench:", err)
	os.Exit(1)
}
