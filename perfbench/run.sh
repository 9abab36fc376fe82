#!/usr/bin/env bash
# run.sh builds the benchmark from the sources of the checkout it sits in
# and runs it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload power --seed 11 --seconds 30 --trace 0
#   bash perfbench/run.sh compare runs-a.txt runs-b.txt
#
# Everything the build and the runs write stays under .bench_build: the Go
# build cache and temporary files, the binary, the runs' stores and the
# traced runs' spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
if [ -d "$root/.git" ] && sha=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
    export PERFBENCH_GIT_SHA="$sha"
fi
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
