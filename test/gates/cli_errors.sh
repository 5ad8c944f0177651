# CLI error paths: each case must exit through cmdliner's error path
# (124) with one line on stderr, never an uncaught exception.
# Usage: sh cli_errors.sh SCOPEOPT
set -e
B=$1
err=$(mktemp)
trap 'rm -f "$err"' EXIT
# one_line PATTERN COMMAND...: COMMAND exits 124 with one stderr line
# matching PATTERN
one_line() {
  pattern=$1 code=0
  shift
  "$@" > /dev/null 2> "$err" || code=$?
  cat "$err"
  if [ "$code" -ne 124 ] || [ "$(wc -l < "$err")" -ne 1 ] \
     || ! grep -qE "$pattern" "$err"; then
    echo "expected exit 124 and one line matching '$pattern' from: $* (exit $code)" >&2
    exit 1
  fi
}
# a near-certain fault rate uses up stage 0's attempt budget
one_line '^scopeopt: fault recovery exhausted: stage [0-9]+ used up its attempt budget after [0-9]+ attempt\(s\)$' \
  "$B" run -b S1 --inject-faults 1 --fault-rate 0.9
one_line . "$B" serve --gen 3 --stats-file /nonexistent/dir/s.json
# a budget is a non-negative whole number of tasks
one_line '^scopeopt: --budget: expected a non-negative number of tasks, got "-5"$' \
  "$B" optimize -b S1 --budget=-5
one_line '^scopeopt: --budget: expected a non-negative number of tasks, got "1.5"$' \
  "$B" optimize -b S1 --budget 1.5
# a directory given as the script, the trace or the stream
for cmd in optimize lint check-trace serve; do
  one_line 'Is a directory' "$B" "$cmd" .
done
