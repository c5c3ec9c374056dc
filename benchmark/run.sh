#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (Go's build cache included)
# lands under .bench_build at the checkout root, so a run reads and
# writes nothing outside the checkout. README.md has the usage.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/benchmark" . >&2
cd "$root"
exec "$build/benchmark" -out benchmark/out "$@"
