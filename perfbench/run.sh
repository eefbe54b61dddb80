#!/bin/sh
# Builds the benchmark from this source checkout and runs one workload, e.g.
#   sh perfbench/run.sh --workload cold-screen --seed 1 --seconds 25 --trace 0
# Run it from the root of the checkout.  The last line of standard output is
# the JSON result; build output goes to standard error.
set -eu
if [ ! -f dune-project ] || [ ! -d lib/scaguard ]; then
  echo "perfbench: run from the root of a scaguard source checkout" >&2
  exit 2
fi
# no shared dune cache: the build reads and writes only inside the checkout
DUNE_CACHE=disabled dune build --root . --profile release ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
