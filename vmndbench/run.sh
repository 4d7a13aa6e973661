#!/usr/bin/env bash
# Builds vmnd and the benchmark program from the checkout in the current
# directory, then runs the benchmark with the given flags, e.g.
#
#   bash vmndbench/run.sh --workload vpc-edit --seed 1 --seconds 30 --trace 0
#   bash vmndbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Everything built or written stays under .bench_build in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# With telemetry on (the Go default is "local"), the first go command in a
# fresh config directory starts a detached telemetry process that can
# outlive this script. Turn it off the way `go telemetry off` does.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/vmnd" ./cmd/vmnd >&2
(cd vmndbench && go build -o "$out/vmndbench" .) >&2
exec "$out/vmndbench" -vmnd "$out/vmnd" -work "$out" "$@"
