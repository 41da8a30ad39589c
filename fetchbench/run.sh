#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash fetchbench/run.sh --workload hot-small --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"

if [ ! -f "$here/../go.mod" ]; then
	echo "fetchbench: the repository's go.mod is not next to $here; run from a full checkout" >&2
	exit 1
fi
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$out/fetchbench" .)
exec "$out/fetchbench" "$@"
