#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, the binary, traced-run spans)
# stays under $CARGO_TARGET_DIR, default .bench_build, in the current
# directory. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath" "$out/spans"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
