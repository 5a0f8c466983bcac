#!/usr/bin/env bash
# Builds rejsched and the layer-ladder benchmark from this checkout in the
# release profile, then runs the ladder with the given arguments.  Run it
# from the repository root, e.g.
#   bash bench/ladder/run.sh --workload serve-uniform --seed 1 --seconds 15 --trace 0
# Build output goes to standard error; the ladder's last line of standard
# output is its JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/rejsched.ml ] || [ ! -d lib ]; then
  echo "run.sh: no rejsched sources here; run it from the repository root" >&2
  exit 2
fi

dune build --cache=disabled --profile release bin/rejsched.exe bench/ladder/ladder.exe >&2
exec ./_build/default/bench/ladder/ladder.exe "$@"
