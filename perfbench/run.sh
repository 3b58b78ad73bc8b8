#!/usr/bin/env bash
# Builds dhisq-serve and the benchmark from source into .bench_build/ and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload shots --seed 1 --seconds 50 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
# Keep the Go build cache and the toolchain's config and telemetry files
# inside the repository, and never reach for a network toolchain or module
# proxy.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

if ! go build -o "$out/dhisq-serve" ./cmd/dhisq-serve >&2; then
	echo "perfbench: cannot build cmd/dhisq-serve (run from the repository root)" >&2
	exit 1
fi
if ! (cd perfbench && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: cannot build the benchmark" >&2
	exit 1
fi
exec "$out/perfbench" --serve-bin "$out/dhisq-serve" --work-dir "$out" "$@"
