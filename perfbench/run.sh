#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root,
# passing every argument through:
#
#   bash perfbench/run.sh --workload serve-unit --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, scratch arrays and span files all go
# under .bench_build/ at the root, so a run writes nothing outside the
# checkout. Without the repository's Go module beside this directory
# the build fails, and so does the run.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
