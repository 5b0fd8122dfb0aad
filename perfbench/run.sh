#!/usr/bin/env bash
# Builds fftxd and the benchmark from the sources of this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the span dumps go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fftxd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; go.mod and cmd/fftxd are required" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/fftxd" ./cmd/fftxd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -fftxd "$out/bin/fftxd" -out "$out" "$@"
