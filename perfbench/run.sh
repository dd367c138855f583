#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline --seed 1 --seconds 20 --trace 0
#
# Every build artifact and scratch file stays under .bench_build/ in the
# checkout (Go build cache, module cache, temporary files and the Go
# toolchain's own config and telemetry directory included), so a fresh
# checkout builds from source and nothing is written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
