#!/usr/bin/env bash
# Builds the benchmark harness and the jobschedd daemon from the checkout
# it sits in, then runs the harness from the checkout root. Everything
# the build and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters)
# inside the checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/jobschedd" ./cmd/jobschedd)
cd "$root"
exec "$out/perfbench" --bin "$out" "$@"
