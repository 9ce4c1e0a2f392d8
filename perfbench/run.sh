#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <api-detect|authority-rtt|lineage-read> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, cache and data
# directory lives under .bench_build/ in that root; the benchmark removes its
# data directory when it exits. The last line of standard output is the JSON
# result; build logs go to standard error.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" "$@"
