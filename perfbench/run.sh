#!/usr/bin/env bash
# Builds psibench, psid and the perfbench command from this checkout, then
# runs perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay inside .bench_build/ of the
# checkout; nothing is fetched (there are no external modules).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/psid" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/psibench" ./cmd/psibench >&2
go build -o "$out/bin/psid" ./cmd/psid >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" "$@"
