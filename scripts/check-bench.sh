#!/bin/sh
# check-bench.sh — assert the committed perf baseline holds the line.
#
# Reads the checked-in BENCH_fft.json (not a fresh run: CI machines are too
# noisy to regenerate ratios, so the gate pins what was measured and
# committed) and fails if a headline ratio has been committed below its
# floor:
#
#   kernel_speedups.plan2d_60x60 >= 1.0   the blocked/planar 2-D column
#                                         pass must not lose to the
#                                         per-column strided form again
#                                         (the PR-5 regression)
#   kernel_speedups.hostpar_real >= 1.15  the host-par real-mode pipeline
#                                         must beat the serial reference
#                                         even on one core (the planar
#                                         batch kernels), not just ride
#                                         core count
#
# It also reads the checked-in BENCH_engines.json and fails unless the
# dataflow engine's simulated runtime beats task-combined on at least one
# committed shape — the lookahead window's win on the narrow-rank points
# is a headline claim of the dataflow engine, pinned here like any other
# ratio.
#
# Regenerating these files with results below the floors and committing
# them is the failure this script exists to catch.
set -eu

cd "$(dirname "$0")/.."
FILE="${1:-BENCH_fft.json}"
ENGINES="${2:-BENCH_engines.json}"

[ -f "$FILE" ] || { echo "check-bench: $FILE missing" >&2; exit 1; }
[ -f "$ENGINES" ] || { echo "check-bench: $ENGINES missing" >&2; exit 1; }

check() {
	key="$1"; floor="$2"
	val="$(awk -F'[:,]' -v k="\"$key\"" '$0 ~ k {gsub(/[ \t]/, "", $2); print $2}' "$FILE")"
	case "$val" in
	''|null)
		echo "check-bench: $key missing from $FILE" >&2
		exit 1
		;;
	esac
	ok="$(awk -v v="$val" -v f="$floor" 'BEGIN { print (v + 0 >= f + 0) ? 1 : 0 }')"
	if [ "$ok" != 1 ]; then
		echo "check-bench: $key = $val, floor $floor" >&2
		exit 1
	fi
	echo "check-bench: $key = $val (floor $floor) ok"
}

check plan2d_60x60 1.0
check hostpar_real 1.15

# The dataflow floor: at least one committed (ranks, ntg) shape where the
# dataflow runtime is strictly below task-combined's.
win="$(awk -F'[:,]' '
/"engine"/ {
	for (i = 1; i <= NF; i++) gsub(/[ \t"{}]/, "", $i)
	ranks = ""; ntg = ""; engine = ""; runtime = ""
	for (i = 1; i < NF; i++) {
		if ($i == "ranks") ranks = $(i + 1)
		else if ($i == "ntg") ntg = $(i + 1)
		else if ($i == "engine") engine = $(i + 1)
		else if ($i == "runtime_s") runtime = $(i + 1)
	}
	if (runtime == "" || runtime == "null") next
	shape = ranks "x" ntg
	if (engine == "dataflow") df[shape] = runtime
	else if (engine == "task-combined") tc[shape] = runtime
}
END {
	for (s in df)
		if (s in tc && df[s] + 0 < tc[s] + 0) {
			printf "%s dataflow=%s task-combined=%s\n", s, df[s], tc[s]
			exit
		}
}' "$ENGINES")"
if [ -z "$win" ]; then
	echo "check-bench: dataflow beats task-combined on no committed shape in $ENGINES" >&2
	exit 1
fi
echo "check-bench: dataflow floor ok ($win)"
