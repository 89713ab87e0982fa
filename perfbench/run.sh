#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from
# the root of the checkout. The build cache, the binary, data
# directories and reports all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export CARGO_TARGET_DIR=$out
mkdir -p "$out/perfbench/tmp"
export GOCACHE=$out/perfbench/gocache GOMODCACHE=$out/perfbench/gomod GOPATH=$out/perfbench/gopath \
	GOTMPDIR=$out/perfbench/tmp TMPDIR=$out/perfbench/tmp XDG_CONFIG_HOME=$out/perfbench/config \
	GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench/bin/perfbench" .)
exec "$out/perfbench/bin/perfbench" "$@"
