#!/usr/bin/env bash
# Builds the iocov benchmark (perfbench) from source and runs one workload.
#
#   bash _perfbench/run.sh --workload run-xfstests --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, Go's config and telemetry files, temporary files, the
# binary, span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off

(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
