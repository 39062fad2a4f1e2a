#!/usr/bin/env bash
# Builds PATA's benchmark from source and runs it, from the root of a
# checkout:
#
#   bash bench/run.sh --workload scan-linux --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, binaries and results all go under
# .bench_build/ in the checkout, and the build never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
