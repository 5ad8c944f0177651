# -b NAME and the bench read one workload registry: each builtin's
# `optimize --json` block must equal its BENCH_opt.json record on every
# field but the wall times.
# Usage: python3 cli_bench.py SCOPEOPT BENCH_opt.json
import json, subprocess, sys
bench = {w['name']: w['optimization'] for w in json.load(open(sys.argv[2]))['workloads']}
bad = []
for name in ('S1', 'S2', 'S3', 'S4', 'IND', 'LS1', 'LS2'):
    out = subprocess.run([sys.argv[1], 'optimize', '-b', name, '--json'],
                         check=True, capture_output=True, text=True).stdout
    cli = json.loads(out)['optimization']
    keys = sorted(k for k in set(cli) | set(bench[name]) if not k.endswith('_time_s'))
    diff = [(k, cli.get(k), bench[name].get(k)) for k in keys if cli.get(k) != bench[name].get(k)]
    print(name, diff or 'agrees on %d fields' % len(keys))
    bad += diff
assert not bad, bad
