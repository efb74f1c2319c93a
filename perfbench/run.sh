#!/usr/bin/env bash
# Builds the benchmark runner from the checkout's sources and runs it
# with the given arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload encode-steady --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the runner binary stay under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# VCS stamping records the revision in the envelope; a checkout that is
# not a usable git work tree builds without it.
if ! go build -C "$root/perfbench" -o "$out/perfbench" . 2>"$out/build.log"; then
	go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
fi
exec "$out/perfbench" "$@"
