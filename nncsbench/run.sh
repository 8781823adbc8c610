#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash nncsbench/run.sh --workload acas_paper|acas_split|serve_mix \
#        --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d data ]; then
  echo "nncsbench: not at the root of a full checkout (need dune-project, lib/, data/)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout: keep the build inside it
DUNE_CACHE=disabled dune build --root . ./nncsbench/nncsbench.exe 1>&2
# Source stamp: the git revision when there is one, and always a digest
# of the sources the benchmark builds from.
rev=unknown
if [ -e .git ]; then rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown); fi
tree=$(find lib bin nncsbench dune-project -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.c' -o -name dune -o -name dune-project \) \
  | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)
NNCSBENCH_REV="$rev" NNCSBENCH_TREE="$tree" exec ./_build/default/nncsbench/nncsbench.exe "$@"
