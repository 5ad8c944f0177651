# Trace smoke: --trace re-parses the emitted Chrome JSON, runs the
# well-formedness checker and the SA045 trace audit; check-trace
# re-validates each file as a consumer would.
# Usage: sh trace_smoke.sh SCOPEOPT
set -e
for w in S1 S2 S3 S4 IND LS1 LS2; do
  echo "== scopeopt run --builtin $w --workers 4 --trace trace-$w.json"
  "$1" run --builtin "$w" --workers 4 --trace "trace-$w.json"
  "$1" check-trace "trace-$w.json"
done
# under --json, stdout must hold the report alone, even when a trace is
# written beside it
"$1" run --builtin S1 --workers 4 --json --trace trace-report-S1.json > report-S1.json
python3 -m json.tool report-S1.json > /dev/null
