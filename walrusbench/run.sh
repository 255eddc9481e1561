#!/usr/bin/env bash
# Builds the WALRUS benchmark from the checkout it is run in and runs one
# workload:
#
#   bash walrusbench/run.sh --workload query-10k --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ in that directory: the Go build cache, the
# binary, the databases of a run (removed when it ends) and span dumps.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/walrusbench/go.mod" ]; then
    echo "walrusbench: run from the root of a walrus checkout" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
(cd "$root/walrusbench" && go build -o "$out/bin/walrusbench" .)
exec "$out/bin/walrusbench" "$@"
