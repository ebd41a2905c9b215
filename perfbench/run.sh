#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload closed-b1 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's own state all stay in
# .bench_build/ at the top of the checkout; nothing is fetched.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
