#!/bin/sh
# Malformed command lines of the lint driver: an unknown option, or an
# option missing its value, must exit 2 with a first line naming the
# option, before any file is read (no "no such path", no summary line).
#
# Usage: sh lint_usage.sh path/to/tools/lint/lint_main.exe
lint=$1
failed=0
while IFS='|' read -r name args; do
  # shellcheck disable=SC2086  # options and paths
  out=$("$lint" $args 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "lint $args: exit $code, expected 2"
    failed=1
  fi
  case $out in
  *"no such path"* | *"file(s)"*)
    echo "lint $args: read files before rejecting the command line:"
    echo "$out"
    failed=1
    ;;
  esac
  case ${out%%
*} in
  *"$name"*) ;;
  *)
    echo "lint $args: the first line does not name $name:"
    echo "$out"
    failed=1
    ;;
  esac
done <<'CASES'
--bogus|--bogus lib
--json|lib --json
--json|--json
--json|--deep --json --strict-suppressions lib
--quiet|--quiet lib
--deep-root|--deep-root Flexile_te.Scenario_engine lib
CASES
exit $failed
