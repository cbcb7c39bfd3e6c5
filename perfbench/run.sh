#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments (see perfbench/README.md).  Run from the repository root:
#
#   bash perfbench/run.sh --workload fft-hm4 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, telemetry, the binary) and
# everything the benchmark writes (result records, spans, CPU profiles) stays
# under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT
exec "$out/perfbench" -out "$out/results" "$@"
