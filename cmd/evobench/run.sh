#!/bin/sh
# Builds evobench from the source tree it is run in and runs it with the
# given arguments.  Run it from the repository root:
#
#	sh cmd/evobench/run.sh --workload fig2-noisy --seed 1 --seconds 26 --trace 0
#
# The Go build cache, the binary and every temporary file (the build's and
# the benchmark's checkpoints) stay under .bench_build/ in the current
# directory, and the toolchain never reaches the network.  The build fails,
# and the script exits non-zero, when the directory does not hold the
# module the benchmark measures.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"  # the build cache
export GOPATH="$out/gopath"    # unused (no dependencies), but never the user's
export TMPDIR="$out/tmp"       # the build's work files and the checkpoints
export GOENV=off               # no user go env file
export GOFLAGS=                # no inherited build flags
export GOWORK=off              # no go.work from a parent directory
export GOPROXY=off             # no module download
export GOTOOLCHAIN=local       # no toolchain download

go build -C cmd/evobench -o "$out/evobench" .
exec "$out/evobench" "$@"
