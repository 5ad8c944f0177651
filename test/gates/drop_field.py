# Prints a bench document without cse_cost in any workload: the drift
# gate must reject it as a baseline, since a renamed or dropped field
# must fail the gate, not disable it.
# Usage: python3 drop_field.py BENCH_opt.json > bench-missing-field.json
import json, sys
doc = json.load(open(sys.argv[1]))
for w in doc['workloads']:
    del w['optimization']['cse_cost']
json.dump(doc, sys.stdout)
