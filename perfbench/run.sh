#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload kv-small --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Every file it writes (build cache,
# binary, WAL directories, traces) stays under .perfbench/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/abcast" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (abcast/ and go.mod not found)" >&2
	exit 2
fi

out="$root/.perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
