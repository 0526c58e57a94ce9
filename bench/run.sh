#!/bin/sh
# Build the benchmark inside the checkout and run it: BENCHMARK.json's
# command. Run from the repository root: sh bench/run.sh --workload ...
#
# Everything the Go tool writes — build cache, module cache, its config
# and telemetry directory, the binary — is pointed under .bench_build/ at
# the root of the checkout, so a run touches nothing outside it. Without the
# root module (a directory holding only bench/) the build fails and so does
# this script.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-mod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
