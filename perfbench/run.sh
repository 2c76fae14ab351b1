#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the benchmark's on-disk index files
# all stay under ${CARGO_TARGET_DIR:-.bench_build} in the checkout; the
# first run compiles the standard library into that cache.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal/core ]]; then
	echo "perfbench: run from the repository root; the engine's sources are missing here" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" HOME="$build/home" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build" "$@"
