#!/usr/bin/env bash
# Builds the benchmark program and the scrubjay CLI from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_fig5 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, generated inputs, and report/trace
# artifacts all live under .bench_build/ in the checkout. A failed build
# exits nonzero without printing a result line.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOFLAGS=
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"

go build -o "$build/scrubjay" ./cmd/scrubjay >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -cli "$build/scrubjay" -out "$build/out" "$@"
