#!/usr/bin/env bash
# Runs every workload (or the ones named) ROUNDS times with a different seed
# each round, alternating the workload order between rounds, collects the
# untraced results in OUT and prints each end-to-end metric's median,
# quartiles and spread (IQR / median). Run from the repository root:
#
#	bash perfbench/steady.sh .bench_build/a.jsonl 10
#	bash perfbench/steady.sh .bench_build/b.jsonl 5 live-mixed
#	bash perfbench/run.sh --compare .bench_build/a.jsonl .bench_build/b.jsonl
#
# FIRST_SEED (default 1) sets the first round's seed; TRACE=1 adds a traced
# run after each untraced one, so --compare can name the layers that moved.
# Each run measures BENCHMARK.json's run_seconds.
set -euo pipefail
out=${1:?usage: steady.sh OUT.jsonl ROUNDS [workload...]}
rounds=${2:?usage: steady.sh OUT.jsonl ROUNDS [workload...]}
shift 2
wls=("$@")
if [[ ${#wls[@]} -eq 0 ]]; then
	wls=(batch-day live-ingest live-mixed)
fi
seed=${FIRST_SEED:-1}
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for ((k = 0; k < rounds; k++)); do
	order=("${wls[@]}")
	if ((k % 2 == 1)); then
		order=()
		for ((i = ${#wls[@]} - 1; i >= 0; i--)); do order+=("${wls[i]}"); done
	fi
	for wl in "${order[@]}"; do
		echo "steady: round $((k + 1))/$rounds $wl seed $((seed + k))" >&2
		for trace in 0 ${TRACE:+1}; do
			bash perfbench/run.sh --workload "$wl" --seed $((seed + k)) --seconds "$secs" --trace "$trace" | tail -1 >&2
			tail -n 1 .bench_build/results.jsonl >>"$out"
		done
	done
done
bash perfbench/run.sh --compare "$out"
