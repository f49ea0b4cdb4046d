#!/usr/bin/env bash
# Builds the SkyServer end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload explorer --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh compare A.json B.json
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache,
# the binary, job spill files, result files and span dumps.
set -euo pipefail

root="$(pwd)"
bench="$root/e2ebench"
if [[ ! -f "$bench/go.mod" || ! -f "$root/go.mod" ]]; then
  echo "e2ebench: run from the repository root (needs go.mod and e2ebench/)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
# The go command keeps its settings and telemetry under the user config
# directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off
export CGO_ENABLED=0
(cd "$bench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
