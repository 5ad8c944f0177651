# -b NAME and the bench read one workload registry: each builtin's
# `optimize --json` block must equal its BENCH_opt.json record on every
# field but the wall times, and for the small builtins `run --json`'s
# execution summary must carry the record's batch and stage figures.
# Usage: python3 cli_bench.py SCOPEOPT BENCH_opt.json
import json, subprocess, sys
records = {w['name']: w for w in json.load(open(sys.argv[2]))['workloads']}
def cli(*args):
    return json.loads(subprocess.run([sys.argv[1], *args, '--json'], check=True,
                                     capture_output=True, text=True).stdout)
bad = []
for name in ('S1', 'S2', 'S3', 'S4', 'IND', 'LS1', 'LS2'):
    got, want = cli('optimize', '-b', name)['optimization'], records[name]['optimization']
    keys = sorted(k for k in set(got) | set(want) if not k.endswith('_time_s'))
    diff = [(k, got.get(k), want.get(k)) for k in keys if got.get(k) != want.get(k)]
    print(name, diff or 'agrees on %d fields' % len(keys))
    bad += diff
# (run --json execution field, BENCH_opt.json record field)
PAIRS = (('batches', 'exec_batches'), ('batch_size', 'exec_batch_size'), ('stage_count', 'stages'))
for name in ('S1', 'S2', 'S3', 'S4', 'IND'):
    got = cli('run', '-b', name)['execution']
    diff = [(name, k, got[k], records[name][r]) for k, r in PAIRS if got[k] != records[name][r]]
    print(name, 'run', diff or 'agrees on ' + ', '.join(k for k, _ in PAIRS))
    bad += diff
assert not bad, bad
