#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload oltp-aged --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files, the go command's
# telemetry) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no waflfs module to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
