#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go caches) stays under the
# build directory inside the checkout (CARGO_TARGET_DIR when set, else
# .bench_build). Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero without a result.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config # the go command's telemetry counters
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off CGO_ENABLED=0
commit=unknown
if [ -e "$root/.git" ]; then commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown); fi
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
export PERFBENCH_COMMIT=$commit PERFBENCH_OUT=$build
exec "$build/perfbench" "$@"
