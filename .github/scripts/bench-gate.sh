#!/usr/bin/env bash
# Same-runner benchmark gate: did a change move the repository benchmark?
#
# Builds ./bench once in each of two checkouts, the parent commit and the
# change, and runs every workload of the change's BENCHMARK.json in
# alternating pairs on this one machine: both sides of a pair get the same
# seed, and odd pairs run the parent first, even pairs the change. Each
# side's runs are merged into one recording (their Runs arrays
# concatenated), and `bench -compare parent.json change.json` judges the
# two; its table is written to OUT_DIR/compare.txt.
#
# The gate fails only when a run of the change fails a correctness check,
# cannot run at all, or fails a larger share of its operations than the
# parent. A metric verdict ("worse", "better", "unresolved") is reported,
# not enforced: -compare does not yet tell count metrics from timing
# metrics, and timings on a shared runner move with the runner.
#
# usage: bench-gate.sh PARENT_DIR CHANGE_DIR OUT_DIR
#   PAIRS            pairs per workload (default 5)
#   SECONDS_PER_RUN  -seconds of one run (default 20)
#   SEED             seed of the first pair; pair p uses SEED + p - 1
#                    (default 1000000)
#   BENCH_ARGS       further flags for every run, e.g. -quick, without
#                    which a live workload needs -seconds 6 or more
set -euo pipefail
if [ $# -ne 3 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR OUT_DIR" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
# Recordings of an earlier gate in the same OUT_DIR must neither stand in
# for a run that wrote none nor join this gate's merge.
rm -rf "$out/runs"
mkdir "$out/runs"
pairs=${PAIRS:-5}
seconds=${SECONDS_PER_RUN:-20}
seed=${SEED:-1000000}

(cd "$parent" && go build -o "$out/bench-parent" ./bench)
(cd "$change" && go build -o "$out/bench-change" ./bench)

status=0
for w in $(jq -r '.workloads[].name' "$change/BENCHMARK.json"); do
	for p in $(seq 1 "$pairs"); do
		order="parent change"
		if [ $((p % 2)) -eq 0 ]; then
			order="change parent"
		fi
		for side in $order; do
			run="$out/runs/$side-$w-$p"
			# A run that fails a check exits 1 but still writes its
			# recording, which -compare judges; one that writes none
			# could not run.
			# shellcheck disable=SC2086 # BENCH_ARGS is a list of flags
			"$out/bench-$side" -workload "$w" -seed $((seed + p - 1)) -seconds "$seconds" \
				${BENCH_ARGS:-} -out "$run.json" >"$run.log" 2>&1 || true
			if [ ! -s "$run.json" ]; then
				echo "bench-gate: $side $w pair $p wrote no recording:" >&2
				tail -n 5 "$run.log" >&2
				if [ "$side" = change ]; then
					status=1
				fi
			fi
		done
	done
done

for side in parent change; do
	jq -s '{env: .[0].env, runs: [.[].runs[]]}' "$out"/runs/"$side"-*.json >"$out/$side.json"
done
"$out/bench-change" -compare "$out/parent.json" "$out/change.json" >"$out/compare.txt" || true
cat "$out/compare.txt"
if grep -Eq '[[:space:]]failed_share[[:space:]].*worse$|failed a correctness check' "$out/compare.txt"; then
	status=1
fi
exit "$status"
