#!/usr/bin/env bash
# Builds the system benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash sysbench/run.sh --workload oltp-k1-durable --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOWORK=off
(cd "$root/sysbench" && go build -o "$build/sysbench" .)
cd "$root"
exec "$build/sysbench" "$@"
