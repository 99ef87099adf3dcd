#!/usr/bin/env bash
# The benchmark's entry point, called from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the binary the run needs from source into .bench_build/ (Go's
# build cache lives there too, so nothing outside the checkout is written)
# and hands it the arguments: --trace 0 is the end-to-end binary (bench/),
# --trace 1 the traced one (bench/layers/). Everything else about the
# benchmark is in bench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local

trace=0
prev=""
for arg in "$@"; do
	case "$prev" in --trace | -trace) trace="$arg" ;; esac
	case "$arg" in --trace=* | -trace=*) trace="${arg#*=}" ;; esac
	prev="$arg"
done

if [ "$trace" = 1 ]; then
	(cd "$here" && go build -o "$build/layers" ./layers)
	exec "$build/layers" --spans "$here/out" "$@"
fi
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
