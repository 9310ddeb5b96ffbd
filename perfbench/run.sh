#!/usr/bin/env bash
# Builds procmine, procmined and the benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
  GOWORK=off GOFLAGS= GOTOOLCHAIN=local
go build -o "$out/bin/procmine" ./cmd/procmine
go build -o "$out/bin/procmined" ./cmd/procmined
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
