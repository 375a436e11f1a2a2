#!/usr/bin/env bash
# Builds ecfrmd and the benchmark from source, then runs the benchmark:
#
#   bash perfbench/run.sh --workload read-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temp files, binaries, scratch deployments, span files)
# stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ecfrmd" ]; then
    echo "perfbench: run from the repository root (no go.mod or cmd/ecfrmd here)" >&2
    exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/bin" "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bin/ecfrmd" ./cmd/ecfrmd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin/ecfrmd" -build "$build" -root "$root" "$@"
