#!/usr/bin/env bash
# Builds the serving benchmark from the repository's sources and runs it:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build cache and binary go to .bench_build/ and the run's traces and
# reports to .bench_out/, both at the repository root; nothing is written
# elsewhere. Without the repository around it the build fails, and so does
# the run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/servebench" .) >&2
cd "$root"
exec "$build/servebench" "$@"
