#!/usr/bin/env bash
# Builds queued and the benchmark driver from source, then runs the driver.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload batch-day --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh --compare old.jsonl new.jsonl
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binaries, the cached
# workload inputs, scratch data directories, traces and results.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/queued || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/queued and perfbench/ must exist)" >&2
	exit 2
fi
command -v go >/dev/null || {
	echo "perfbench: no go toolchain on PATH" >&2
	exit 2
}

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/queued" ./cmd/queued
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -queued "$out/bin/queued" -out "$out" "$@"
