#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (inside the checkout,
# Go build cache included, so nothing is read or written elsewhere) and runs
# it with the given arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/cliquebench" .)
cd "$root"
exec "$build/cliquebench" "$@"
