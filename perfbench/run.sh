#!/usr/bin/env bash
# Builds the rdfanalytics server and the perfbench load generator from the
# sources of this checkout, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and each run's generated inputs live
# under .bench_build/ at the repository root; nothing is written elsewhere.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/rdfanalytics ] || [ ! -d internal ]; then
	echo "perfbench: $root is not a full rdfanalytics checkout (go.mod, cmd/, internal/ missing)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/rdfanalytics" ./cmd/rdfanalytics
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/rdfanalytics" -work "$out" "$@"
