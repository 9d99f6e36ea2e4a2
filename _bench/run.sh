#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash _bench/run.sh --workload sshd-integrated --seed 2007 --seconds 25 --trace 0
#
# Every flag is passed to the benchmark binary (see _bench/README.md). The
# binary, the Go build cache and Go's temporary and config files all stay
# under .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$src" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
