#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it:
#   bash perfbench/run.sh --workload lr-job --seed 1 --seconds 30 --trace 0
# Run it from the root of the checkout. The Go build cache, the binary,
# the go command's own state and every temporary file the benchmark
# writes stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
