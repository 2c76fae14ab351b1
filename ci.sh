#!/bin/sh
# ci.sh — the repository's check suite: formatting, vet, build, the
# repo-specific static analyzer (cpqlint, DESIGN.md §7), the analyzer
# turned on itself, the full test suite, and the race detector over the
# whole module (the parallel K-CPQ engine and the sharded buffer pool
# make every package fair game for concurrency bugs).
#
# Usage:
#   ./ci.sh            run every gate
#   ./ci.sh lint       just the analyzer over the module
#                      (alias for `go run ./cmd/cpqlint ./...`,
#                      the single supported lint entry point)
#   ./ci.sh lint-self  the analyzer over its own sources, plus the
#                      fuzz seed-corpus presence check
#   ./ci.sh bench      the perf gates: the hot-path Go benchmarks
#                      (Fig. 4/7, parallel K-CPQ, pair heap) with
#                      -benchmem, then the leafscan ablation, which
#                      fails if the plane-sweep leaf scan evaluates
#                      more point pairs than the brute scan (writes
#                      BENCH_PR4.json), then the pr9 sharding gate,
#                      which fails if the sharded scatter-gather run
#                      deviates from the monolithic answer, prunes
#                      under 30% of the planned shard pairs, runs
#                      slower than the monolithic baseline, or
#                      processes more node pairs than it (writes
#                      BENCH_PR9.json),
#                      then the ctxflow cancellation gate, which fails
#                      if threading a live (never-cancelled) context
#                      through the default sequential HEAP costs more
#                      than 1% wall clock or perturbs any counter,
#                      then the pr10 explain gate, which fails if the
#                      explain-off query path costs more than 1% over
#                      the bare executor or perturbs any counter or
#                      result distance (writes BENCH_PR10.json)
#   ./ci.sh obs        the observability gates: the zero-alloc tests on
#                      the disabled hook paths, the one-report-per-query
#                      facade test (metrics and slow log agree with the
#                      returned Stats for every query shape), the obs
#                      registry and explain capture under the race
#                      detector, a
#                      Prometheus-exposition parse smoke test (the fuzz
#                      target over its seed corpus), and the EXPLAIN
#                      golden round-trip with its fuzz corpus
set -eu

lint() {
	# The full pass carries the latency gate: -budget fails the build if
	# any single check runs past 30s, so an interprocedural pass that
	# regresses (the ctxflow summaries, the shareguard fixpoints) shows
	# up here instead of silently stretching every CI run.
	go run ./cmd/cpqlint -timing -budget 30s ./...
	# The cancellation-correctness pass stays a hard gate on its own even
	# if the default check set above is ever trimmed: context must reach
	# every engine entry point, every unbounded loop must poll it, and
	# every spawned goroutine must observe Done or be joined (DESIGN.md §11).
	go run ./cmd/cpqlint -checks ctxflow ./...
	# Likewise the data-race pass (DESIGN.md §12): shared fields of the
	# parallel engine must be mutex-consistent, //lint:guardedby
	# annotations enforced, and post-publication writes synchronized.
	go run ./cmd/cpqlint -checks shareguard ./...
}

# lint_self guards the analyzer's own hygiene: cpqlint must hold its own
# packages to the same invariants it enforces on the engine, and the
# fuzz seed corpora the tier-1 suite replays must not silently vanish
# (an empty corpus dir makes `go test` pass while fuzzing nothing).
lint_self() {
	go run ./cmd/cpqlint internal/lint internal/lint/ssa ./cmd/...
	for corpus in internal/rtree/testdata/fuzz internal/geom/testdata/fuzz internal/obs/testdata/fuzz internal/obs/explain/testdata/fuzz; do
		if [ -z "$(ls "$corpus" 2>/dev/null)" ]; then
			echo "fuzz seed corpus missing or empty: $corpus" >&2
			exit 1
		fi
	done
}

# bench regenerates BENCH_PR4.json, BENCH_PR9.json and BENCH_PR10.json
# and enforces the perf regression gates: cpqbench -pr4 exits non-zero
# if the sweep evaluates more point pairs than the brute scan on the
# standard uniform workload; -pr9, ctxflow and -pr10 exit non-zero on the
# sharding, cancellation and explain gates described above. The Go
# benchmarks run once per case (-benchtime 1x) as a smoke pass; rerun
# them with a higher -benchtime for stable timings.
bench() {
	go test -run '^$' -bench 'BenchmarkFig4Algorithms1CP|BenchmarkFig7KCP' -benchtime 1x -benchmem .
	go test -run '^$' -bench 'BenchmarkParallelKCPQ' -benchtime 1x -benchmem ./internal/bench
	go test -run '^$' -bench 'BenchmarkPairHeap' -benchtime 100x -benchmem ./internal/core
	go run ./cmd/cpqbench -experiment leafscan -pr4 BENCH_PR4.json
	go run ./cmd/cpqbench -experiment pr9 -pr9 BENCH_PR9.json
	go run ./cmd/cpqbench -experiment ctxflow
	go run ./cmd/cpqbench -experiment pr10 -pr10 BENCH_PR10.json
}

# obs gates the observability layer: hooks must stay free when disabled
# (the AllocsPerRun tests), every facade query must feed exactly one
# cost report to its metric set and slow-query log, the registry must be
# safe under concurrent writers and scrapers (-race), the Prometheus text
# exposition must parse (the fuzz target replayed over its committed seed corpus), and
# the EXPLAIN snapshot encoding must stay byte-stable (the golden
# round-trip and its fuzz corpus).
obs() {
	go test -race ./internal/obs
	go test -race ./internal/obs/explain
	go test -run 'TestDisabledHooksZeroAlloc' ./internal/core
	go test -run 'TestCacheTraceDisabledZeroAlloc' ./internal/rtree
	go test -run 'TestNilCaptureZeroAlloc' ./internal/obs/explain
	go test -run 'TestShardDisabledHooksZeroAlloc' ./internal/shard
	go test -run 'TestQueryCostReport' .
	go test -run 'FuzzMetricsExposition' ./internal/obs
	go test -run 'TestExplainGoldenRoundTrip|FuzzExplainRoundTrip' ./internal/obs/explain
}

all() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" "$unformatted" >&2
		exit 1
	fi
	go vet ./...
	go build ./...
	lint
	lint_self
	obs
	go test ./...
	go test -race ./...
}

set -x
case "${1:-all}" in
all) all ;;
lint) lint ;;
lint-self) lint_self ;;
bench) bench ;;
obs) obs ;;
*)
	echo "usage: $0 [all|lint|lint-self|bench|obs]" >&2
	exit 2
	;;
esac
