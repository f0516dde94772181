#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lan-mix --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, and a traced run's spans and CPU profile all
# go under .bench_build/perfbench, so the script writes nowhere else. The
# build needs the repository's own sources one directory up; without them
# it fails and the script exits non-zero before measuring anything.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
