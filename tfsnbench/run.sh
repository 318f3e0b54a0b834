#!/usr/bin/env bash
# Builds tfsnbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash tfsnbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# the sharded engine's spill files) stays under .bench_build/ in the
# repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/tfsnbench/go.mod" ]; then
	echo "tfsnbench: run from the repository root (go.mod, internal/ and tfsnbench/ must be there)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/tfsnbench" && go build -o "$build/tfsnbench" .)
exec "$build/tfsnbench" "$@"
