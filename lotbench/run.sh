#!/usr/bin/env bash
# Builds the lot-serving benchmark from the checkout's sources and runs it.
#
#   bash lotbench/run.sh --workload lots_steady --seed 1 --seconds 42 --trace 0
#
# Run from the root of the repository. Every build artifact (Go build
# cache, temp dirs, the binary) and every file the benchmark writes
# (journals, model registry, result and trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/lotbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export CGO_ENABLED=0

(cd "$root/lotbench" && go build -o "$out/lotbench" .)
exec "$out/lotbench" --root "$root" "$@"
