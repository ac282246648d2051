#!/usr/bin/env bash
# Builds the benchmark and guardd from the checkout it is run in, then runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build artifact, the Go build cache
# and the per-run reports stay under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/guardd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/guardd or perfbench/go.mod missing)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/guardd" ./cmd/guardd

exec "$out/bin/perfbench" -guardd "$out/bin/guardd" -out "$out/perfbench" "$@"
