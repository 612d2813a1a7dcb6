#!/usr/bin/env bash
# Builds octoledger from source and runs it with the given arguments, e.g.
#
#   bash cmd/octoledger/bench.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's own configuration and
# telemetry, and every temporary file (the service workload's artifact store
# included) stay under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/octoledger" .)
exec "$out/octoledger" "$@"
