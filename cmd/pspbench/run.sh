#!/usr/bin/env bash
# Builds pspbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#	bash cmd/pspbench/run.sh -workload ingest-cold -seed 1 -seconds 15
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary and the data
# directories of the booted systems.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/cmd/pspbench" && go build -o "$out/pspbench" .)
exec "$out/pspbench" -data "$out/data" "$@"
