#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it with the given arguments.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload regen-quick --seed 1 --seconds 25 --trace 0
#   bash e2ebench/run.sh steady --workload serve-mix --runs 5
#
# Every build output, Go cache and temp file stays under .bench_build in
# the checkout (CARGO_TARGET_DIR names it when set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "run.sh: run from the repository root (go.mod and e2ebench/go.mod are missing)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOMAXPROCS=2

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
