#!/bin/sh
# Out-of-range overrides of the bench harness: each must exit 2 with a
# message naming the override, before the profile header is printed
# and so before any figure runs.
#
# Usage: sh bench_usage.sh path/to/bench/main.exe
bench=$1
failed=0
while IFS= read -r setting; do
  case $setting in
  --*)
    name=${setting%% *}
    # shellcheck disable=SC2086  # a flag and its value
    out=$("$bench" --fig motivation $setting 2>&1)
    code=$?
    ;;
  *)
    name=${setting%%=*}
    out=$(env "$setting" "$bench" --fig motivation 2>&1)
    code=$?
    ;;
  esac
  if [ "$code" -ne 2 ]; then
    echo "bench $setting: exit $code, expected 2"
    failed=1
  fi
  case $out in
  *"flexile bench:"*)
    echo "bench $setting: started work before rejecting the override:"
    echo "$out"
    failed=1
    ;;
  *"$name"*) ;;
  *)
    echo "bench $setting: the message does not name $name:"
    echo "$out"
    failed=1
    ;;
  esac
done <<'CASES'
FLEXILE_BENCH_SCENARIOS=0
FLEXILE_BENCH_PAIRS=0
FLEXILE_BENCH_EMU_RUNS=-1
FLEXILE_BENCH_CVAR_SCENARIOS=0
FLEXILE_BENCH_PAIRS=many
--jobs -2
CASES
exit $failed
