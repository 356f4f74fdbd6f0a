#!/usr/bin/env bash
# Builds cmd/matchd and the bench harness from source into .bench_build/
# at the checkout root, then runs the harness with the given arguments.
# Everything go writes (build cache, temp files, telemetry counters)
# is pointed inside .bench_build/ so a run touches nothing outside the
# checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Without the program's sources there is nothing to measure: say so and
# fail before anything is started.
if [[ ! -f go.mod || ! -d cmd/matchd ]]; then
	echo "bench/run.sh: $root holds no go.mod and cmd/matchd: the program to measure is not here" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"

# In a fresh config directory the go command starts a detached
# "** telemetry **" child of itself that may outlive it. Telemetry off
# means go starts nothing it does not wait for.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

gobuild() {
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go "$@"
}

gobuild build -o "$out/bin/matchd" ./cmd/matchd
gobuild -C bench build -o "$out/bin/bench" .

exec "$out/bin/bench" -matchd "$out/bin/matchd" -workdir "$out/tmp" "$@"
