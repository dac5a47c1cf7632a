#!/usr/bin/env bash
# Build the benchmark in release mode from this source tree and run it.
# Arguments go to the benchmark (see benchmark/README.md). Run from the
# root of the source tree. Build output and the compiler's temporary
# files go to benchmark/.build, and dune's shared cache is off, so
# nothing is written outside the benchmark's directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
export TMPDIR="$PWD/benchmark/.build/tmp"
mkdir -p "$TMPDIR"
exec dune exec --root . --build-dir "$PWD/benchmark/.build" --profile release \
  --display quiet benchmark/main.exe -- "$@"
