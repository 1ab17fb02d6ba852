#!/usr/bin/env bash
# The pre-PR gate: build everything, vet, run the full test suite, then
# re-run the concurrent packages under the race detector, fuzz every
# on-disk decoder briefly, and build and test the benchmark module. Green
# here is the bar every change must clear (ROADMAP tier-1 plus the race
# gate).
#
# Usage:
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

echo ">> go test ./..."
go test ./...

echo ">> go test -race (concurrent packages)"
go test -race -count=1 \
	./internal/chaos ./internal/cluster ./internal/core \
	./internal/feedclient ./internal/forecast ./internal/history \
	./internal/ingest ./internal/obs ./internal/store ./internal/stream \
	./cmd/queued ./cmd/queueload

# Ten seconds per target; a crasher lands in the package's testdata/fuzz
# and becomes a regression seed once committed.
echo ">> go test -fuzz (decoders, 10s each)"
for target in FuzzScanFrames:./internal/store FuzzReadSegment:./internal/store \
	FuzzDecodeBlock:./internal/history; do
	go test -run '^$' -fuzz "^${target%%:*}\$" -fuzztime=10s "${target#*:}"
done

# perfbench/ is a nested module, so ./... above skips it; building it here
# catches a change to an internal API the benchmark uses.
echo ">> perfbench module: go vet + go test"
(cd perfbench && go vet ./... && go test .)

echo ">> all checks clean"
