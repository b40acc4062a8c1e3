#!/usr/bin/env bash
# Builds sstaload from source and runs it from the repository root, passing
# every argument through:
#
#   bash cmd/sstaload/run.sh --workload sweep-wide --seed 1 --seconds 24 --trace 0
#
# All build output (Go build cache, module path, go's telemetry and
# config files, temp files, binaries) and run output stay under
# .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The module has no external requirements: never consult a proxy or fetch a
# toolchain.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

cd "$root/cmd/sstaload"
go build -o "$out/bin/sstaload" .
cd "$root"
exec "$out/bin/sstaload" -repo "$root" -out "$out/sstaload" "$@"
