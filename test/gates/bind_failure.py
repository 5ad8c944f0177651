# A stream holding one bind failure must fail serve, and its serve: line
# must count the same cache misses as the metrics registry that SA046
# audits.
# Usage: python3 bind_failure.py SCOPEOPT bind-failure.stream
import json, re, subprocess, sys
p = subprocess.run([sys.argv[1], 'serve', sys.argv[2], '--json'], capture_output=True, text=True)
assert p.returncode != 0, 'expected the bind failure to fail serve'
r = json.loads(p.stdout)
metric = sum(x['value'] for x in r['metrics'] if x['name'] == 'serve.cache_misses')
line = [l for l in p.stderr.splitlines() if l.startswith('serve: ')][0]
shown = int(re.search(r'cache_misses=(\d+)', line).group(1))
assert shown == metric == r['serve']['cache_misses'] == 1, (line, metric, r['serve'])
