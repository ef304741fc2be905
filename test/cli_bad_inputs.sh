#!/bin/sh
# Table-driven check of malformed serving input on the CLI.  Usage:
#   sh cli_bad_inputs.sh path/to/ascend_cli.exe
# Every case must be rejected within the time bound with a one-line
# "error:" message and exit status 1: a hang shows up as timeout's 124,
# an uncaught exception as cmdliner's 125.
cli=$1
status=0
while IFS= read -r args; do
  case $args in '' | '#'*) continue ;; esac
  # shellcheck disable=SC2086 # each table row is split into arguments
  out=$(timeout 60 "$cli" $args 2>&1)
  code=$?
  if [ "$code" -ne 1 ] || ! printf '%s\n' "$out" | grep -q '^error: ' ||
    printf '%s\n' "$out" | grep -q 'uncaught exception'; then
    echo "FAIL (exit $code): $args"
    printf '%s\n' "$out" | head -n 5
    status=1
  fi
done <<'CASES'
serve gesture --core tiny --duration 0.1 --rate nan
serve gesture --core tiny --duration 0.1 --rate inf
serve gesture --core tiny --duration 0.1 --rate 0
serve gesture --core tiny --duration 0.1 --rate=-5
serve gesture --core tiny --duration 0.1 --cores 0
serve gesture --core tiny --duration 0.1 --bucket-ms 0
serve gesture --core tiny --duration 0.1 --bucket-ms nan
serve gesture --core tiny --duration 0.1 --batch-max 0
serve gesture --core tiny --duration 0.1 --queue-depth 0
serve gesture --core tiny --duration nan
serve gesture --core tiny --duration inf --closed 1
serve gesture --core tiny --duration 0.1 --process bursty --burst-factor nan
serve gesture --core tiny --duration 0.1 --process bursty --burst-period-ms inf
serve gesture,gesture --core tiny --duration 0.1
serve gesture --core tiny --duration 0.1 --batch-delay-ms nan
serve gesture --core tiny --duration 0.1 --batch-delay-ms inf
serve gesture --core tiny --duration 0.1 --batch-delay-ms=-1
serve gesture --core tiny --duration 0.1 --closed 2 --think-ms nan
serve gesture --core tiny --duration 0.1 --closed 2 --think-ms=-1
serve gesture --core tiny --duration 0.1 --slo-ms nan
serve gesture --core tiny --duration 0.1 --slo-ms=-5
fleet gesture --core tiny --duration 0.1 --rate 0
fleet gesture --core tiny --duration 0.1 --rate nan
fleet gesture --core tiny --duration 0.1 --rate inf
fleet gesture --core tiny --duration 0.1 --nodes 0
fleet gesture --core tiny --duration 0.1 --cores-per-node 0
fleet gesture --core tiny --duration inf --closed 1
fleet gesture --core tiny --duration 0.1 --nodes 2 --train-nodes 3
fleet gesture --core tiny --duration 0.1 --batch-delay-ms nan
fleet gesture --core tiny --duration 0.1 --batch-delay-ms inf
fleet gesture --core tiny --duration 0.1 --closed 2 --think-ms nan
fleet gesture --core tiny --duration 0.1 --closed 2 --think-ms=-1
fleet gesture --core tiny --duration 0.1 --slo-ms nan
fleet gesture --core tiny --duration 0.1 --slo-ms=-5
fleet gesture --core tiny --duration 0.1 --replicas=-1
decode --core lite --duration 0.05 --rate 0
decode --core lite --duration 0.05 --rate nan
decode --core lite --duration 0.05 --rate inf
decode --core lite --duration nan
decode --core lite --duration 0.05 --prompt-mean nan
decode --core lite --duration 0.05 --prompt-mean inf
decode --core lite --duration 0.05 --output-mean nan
CASES
exit $status
