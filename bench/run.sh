#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (binary, Go build cache) stays under
# .bench_build/ in the checkout this script sits in.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$bench")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
go build -C "$bench" -o "$out/bench" .
exec "$out/bench" "$@"
