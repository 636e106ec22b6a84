#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments.  Run from the repository root:
#
#   bash combbench/run.sh --workload pww-sweep --seed 1 --seconds 25 --trace 0
#
# Every file the build writes (Go build cache, module and telemetry
# state, the binary) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f combbench/go.mod ]]; then
	echo "combbench: run from the repository root (go.mod, internal/ and combbench/ not all found)" >&2
	exit 2
fi
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/combbench"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd combbench && go build -o "$out/combbench/combbench" .)
exec "$out/combbench/combbench" "$@"
