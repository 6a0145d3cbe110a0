#!/usr/bin/env bash
# Builds icostbench from the surrounding source tree and runs it.
#
#   bash icostbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#   bash icostbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary,
# Go build cache, run records) lands in .bench_build/ under the current
# directory. "--workload all" runs each workload in its own process, one
# after the other.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep every file the toolchain writes (build cache, temporary build
# directories, telemetry counters under the user config directory) in
# $out, and never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$out/icostbench" .)

all=0
args=()
prev=
for a in "$@"; do
	if [ "$prev" = --workload ] && [ "$a" = all ]; then
		all=1
		args+=(@WORKLOAD@)
	else
		args+=("$a")
	fi
	prev=$a
done
if [ "$all" = 0 ]; then
	exec "$out/icostbench" "$@"
fi
status=0
for w in warm-serve cold-sweep long-trace; do
	"$out/icostbench" "${args[@]/#@WORKLOAD@/$w}" || status=1
done
exit "$status"
