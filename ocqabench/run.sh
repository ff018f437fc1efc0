#!/usr/bin/env bash
# Builds ocqa, ocqad and the benchmark from the source tree it sits in, then
# runs the benchmark with the given arguments, e.g.
#
#   bash ocqabench/run.sh --workload keys-factored --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, the Go build cache included.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ocqa" ] || [ ! -d "$root/cmd/ocqad" ]; then
  echo "ocqabench: run from the repository root (no go.mod, cmd/ocqa or cmd/ocqad here)" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOTELEMETRY=off CGO_ENABLED=0

go build -o "$build/bin/ocqa" ./cmd/ocqa >&2
go build -o "$build/bin/ocqad" ./cmd/ocqad >&2
(cd "$root/ocqabench" && go build -o "$build/bin/ocqabench" .) >&2

exec "$build/bin/ocqabench" -bin "$build/bin" -work "$build/work" "$@"
