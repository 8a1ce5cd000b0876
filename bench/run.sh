#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the Go
# toolchain writes (build cache, temp files, the binary) lands under
# .bench_build/, and the benchmark keeps its journals and stores in memory,
# so a run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
