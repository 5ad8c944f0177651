# One profiled LS2 run must be correct and exercise the main kernels; a
# run asking for more workers than cores must report the pool that ran,
# capped at the host's cores.
# Usage: python3 kernel_profile.py kernel-profile-LS2.json run-S1-w16.json
import json, os, sys
r = json.load(open(sys.argv[1]))
assert r['execution']['ok'], r['execution']
counts = {}
for row in r['metrics']:
    if row['name'] == 'exec.kernel_seconds':
        k = row['labels']['kernel']
        counts[k] = counts.get(k, 0) + row['count']
for k in ('sort', 'aggregate', 'exchange', 'extract'):
    assert counts.get(k, 0) > 0, (k, counts)
e = json.load(open(sys.argv[2]))['execution']
assert e['workers'] == len(e['busy_s']) <= os.cpu_count(), e
