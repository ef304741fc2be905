#!/bin/sh
# Wall-clock scaling gate for the serving event loop.  Usage:
#   sh serve_scaling_gate.sh path/to/ascend_cli.exe [SMALL LARGE ARGS...]
# Times the CLI command ARGS at --duration SMALL and at --duration LARGE
# (normally twice SMALL: twice the requests), best of 3 runs each, and fails
# when the larger trace takes more than 2.3x as long.  Without ARGS it
# times an open-loop serve trace of about 40k requests (--duration 2)
# against one of twice that (--duration 4).  The bound is a ratio, so it
# holds on any machine; the runs alternate between the sizes so that a
# burst of load from elsewhere on the host slows both alike.  Being a
# timing, the gate is kept off `dune runtest`.
cli=$1
shift
if [ $# -eq 0 ]; then
  set -- 2 4 serve gesture --core tiny --cores 8 --costing surrogate \
    --rate 20000
fi
small_d=$1
large_d=$2
shift 2
run_ms() {
  t0=$(date +%s%N)
  "$cli" "$@" --duration "$d" >/dev/null ||
    { echo "$1 scaling: $1 --duration $d failed" >&2; exit 1; }
  t1=$(date +%s%N)
  echo $(((t1 - t0) / 1000000))
}
small=
large=
for _ in 1 2 3; do
  d=$small_d
  s=$(run_ms "$@") || exit 1
  d=$large_d
  l=$(run_ms "$@") || exit 1
  if [ -z "$small" ] || [ "$s" -lt "$small" ]; then small=$s; fi
  if [ -z "$large" ] || [ "$l" -lt "$large" ]; then large=$l; fi
done
awk -v c="$1" -v sd="$small_d" -v ld="$large_d" -v s="$small" -v l="$large" 'BEGIN {
  r = l / (s > 0 ? s : 1)
  printf "%s scaling: --duration %s %d ms, --duration %s %d ms, ratio %.2f (bound 2.3)\n", c, sd, s, ld, l, r
  exit (r > 2.3)
}'
