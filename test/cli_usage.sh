#!/bin/sh
# Malformed flags of the flexile CLI: each must be a cmdliner usage
# error (exit 124) raised while the command line is parsed, so before
# the instance is built (no "topology" line) and never an uncaught
# exception ("internal error").
#
# Usage: sh cli_usage.sh path/to/flexile_cli.exe
flexile=$1
failed=0
while IFS= read -r args; do
  # shellcheck disable=SC2086  # each line is a word list
  out=$("$flexile" $args 2>&1)
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "flexile $args: exit $code, expected 124"
    failed=1
  fi
  case $out in
  *"internal error"* | *topology\ *)
    echo "flexile $args: started work before rejecting the flag:"
    echo "$out"
    failed=1
    ;;
  esac
done <<'CASES'
monitor B4 --scenarios 6 --snapshot-every 0
monitor B4 --scenarios 6 --window 0
monitor B4 --scenarios 6 --draws=-1
solve B4 --scenarios 6 --max-pairs=0
solve B4 --scenarios 6 --gamma=-0.5
solve B4 --scenarios 6 --iterations 0
explain B4 --scenarios 6 --tol=-1
explain B4 --scenarios 6 --top=-1
emulate B4 --scenarios 6 --runs=-1
CASES
exit $failed
