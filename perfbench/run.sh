#!/usr/bin/env bash
# Builds the perfbench program and cmd/experiments from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload bdc-saturated --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry under the user config directory.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$build/bin" "$GOTMPDIR"

go build -o "$build/bin/experiments" ./cmd/experiments
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -experiments "$build/bin/experiments" -work "$build" "$@"
