#!/bin/sh
# Wall-clock scaling gate for the serving event loop.  Usage:
#   sh serve_scaling_gate.sh path/to/ascend_cli.exe
# Times one open-loop serve trace of about 40k requests and one of twice
# that, best of 3 runs each, and fails when the larger trace takes more
# than 2.3x as long.  The bound is a ratio, so it holds on any machine;
# the runs alternate between the sizes so that a burst of load from
# elsewhere on the host slows both alike.  Being a timing, the gate is
# kept off `dune runtest`.
cli=$1
run_ms() {
  t0=$(date +%s%N)
  "$cli" serve gesture --core tiny --cores 8 --costing surrogate \
    --rate 20000 --duration "$1" >/dev/null ||
    { echo "serve scaling: serve --duration $1 failed" >&2; exit 1; }
  t1=$(date +%s%N)
  echo $(((t1 - t0) / 1000000))
}
small=
large=
for _ in 1 2 3; do
  s=$(run_ms 2) || exit 1
  l=$(run_ms 4) || exit 1
  if [ -z "$small" ] || [ "$s" -lt "$small" ]; then small=$s; fi
  if [ -z "$large" ] || [ "$l" -lt "$large" ]; then large=$l; fi
done
awk -v s="$small" -v l="$large" 'BEGIN {
  r = l / (s > 0 ? s : 1)
  printf "serve scaling: --duration 2 %d ms, --duration 4 %d ms, ratio %.2f (bound 2.3)\n", s, l, r
  exit (r > 2.3)
}'
