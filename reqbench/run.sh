#!/usr/bin/env bash
# Builds scdisd and the request-path benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash reqbench/run.sh --workload batch-256 --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/scdisd || ! -d internal ]]; then
	echo "reqbench: run from the root of a checkout that holds scdisd (go.mod, cmd/scdisd, internal/)" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod
# With telemetry in its default "local" mode the go command detaches a
# child process that outlives the build; "off" keeps it from starting.
echo off >"$out/home/go/telemetry/mode"
go build -o "$out/bin/scdisd" ./cmd/scdisd
(cd reqbench && go build -o "$out/bin/reqbench" .)
exec "$out/bin/reqbench" "$@"
