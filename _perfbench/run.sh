#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build writes (the binary,
# Go's build cache, temporary files, the go command's own config and
# telemetry) stays under the build directory, which defaults to
# .bench_build and honours CARGO_TARGET_DIR when set.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"

(
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
	cd "$root/_perfbench" && go build -buildvcs=false -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
