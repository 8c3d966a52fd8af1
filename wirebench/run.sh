#!/usr/bin/env bash
# Builds wirebench from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash wirebench/run.sh --workload wire-scan --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/wirebench" .)
exec "$out/wirebench" "$@"
