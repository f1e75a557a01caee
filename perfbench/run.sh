#!/usr/bin/env bash
# Build the benchmark and the daemons it drives from this checkout's
# sources, then run one workload:
#
#   bash perfbench/run.sh --workload paper_eval --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/dmfd.ml ]; then
  echo "perfbench: $(pwd) is not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
dune build --root . bin/dmfd.exe bin/dmfrouter.exe perfbench/perfbench.exe 1>&2
# The benchmark and every process it starts run on one CPU, the first
# this process may use.  Spread over two, router_warm's closed-loop rate
# moved with where the kernel placed the load generator, the router and
# the shards, by up to 0.60 of its median over ten seeds
# (perfbench/README.md, Noise).
if command -v taskset > /dev/null; then
  cpu=$(taskset -pc $$ | sed 's/.*: //; s/[-,].*//')
  exec taskset -c "$cpu" ./_build/default/perfbench/perfbench.exe "$@"
fi
echo "perfbench: taskset not found; running on every CPU" >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
