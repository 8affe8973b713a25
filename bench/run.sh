#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh --workload sim-route --seed 1 --seconds 24 --trace 0
# Everything the Go toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
go -C "$here" build -o "$out/gssobench" .
exec "$out/gssobench" "$@"
