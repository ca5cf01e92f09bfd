#!/usr/bin/env bash
# Builds numabench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash numabench/run.sh --workload table3 --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache and any Go tool state stay under
# .bench_build/ in the checkout. The build fails, and so does the run,
# when the simulator's sources are not next to the benchmark.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/numabench" && go build -o "$out/numabench" .) >&2
exec "$out/numabench" "$@"
