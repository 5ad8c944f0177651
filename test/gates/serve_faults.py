# Recoverable partition losses inside combined and solo serve runs must
# be invisible: every faulted stream exits 0 and matches the fault-free
# stream on each session's (id, rows, cse_cost) and on the number of
# combined batches.
# Usage: python3 serve_faults.py SCOPEOPT
import json, subprocess, sys
def digest(*faults):
    out = subprocess.run([sys.argv[1], 'serve', '--gen', '20', '--seed', '7', '--json', *faults],
                         check=True, capture_output=True, text=True).stdout
    s = json.loads(out)['serve']
    rows = [(x['id'], x['rows'], x['cse_cost'])
            for b in s['batches_detail'] for x in b['sessions']]
    return rows, sum(1 for b in s['batches_detail'] if b['combined'])
clean = digest()
assert clean[1] == 6, clean[1]
for seed in (1, 2, 3):
    faulted = digest('--inject-faults', str(seed), '--fault-rate', '0.3')
    assert faulted == clean, (seed, faulted[1], clean[1])
print('%d sessions, %d combined batches, equal under fault seeds 1-3'
      % (len(clean[0]), clean[1]))
