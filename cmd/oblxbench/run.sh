#!/usr/bin/env bash
# Builds cmd/oblxbench from the checkout in the current directory and
# runs it with the given arguments, e.g.
#
#   bash cmd/oblxbench/run.sh --workload synth-nominal --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all
# stay under .oblxbench/ in the checkout; the build never touches the
# network.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/oblxbench ]; then
	echo "run.sh: run from the root of a repository checkout" >&2
	exit 1
fi
work="$PWD/.oblxbench"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath" \
	GOTMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$work/oblxbench" ./cmd/oblxbench
exec "$work/oblxbench" "$@"
