# A generated 20-script stream with duplicates and batched shared-scan
# pairs must produce cache hits and cross-script spool shares; its
# --stats-file snapshot must parse, agree with the cache figures and
# carry the executor's series.
# Usage: python3 serve_smoke.py serve-smoke.log serve-stats.json serve-report.json
import json, re, sys
log = open(sys.argv[1]).read()
assert re.search(r'serve: .* cache_hits=[1-9]', log), log
assert re.search(r'serve: .* cross_script_shares=[1-9]', log), log
rows = json.load(open(sys.argv[2]))
by = {}
for r in rows:
    by.setdefault(r['name'], []).append(r)
assert sum(r['value'] for r in by['serve.cache_hits']) > 0, by
paths = {r['labels'].get('path') for r in by['serve.session_seconds']}
assert 'hit' in paths and 'miss' in paths, paths
assert all(r['count'] >= 0 and r['p50'] <= r['max'] for r in by['serve.session_seconds'])
assert by['serve.cache_size'][0]['kind'] == 'gauge'
assert any(k.startswith('serve.tenant_') for k in by), sorted(by)
assert sum(r['count'] for r in by.get('exec.kernel_seconds', [])) > 0, sorted(by)
assert sum(r['count'] for r in by.get('exec.stage_seconds', [])) > 0, sorted(by)
r = json.load(open(sys.argv[3]))
s = r['serve']
assert r['schema'] == 'scopecse-run-report/6' and s['cache_hits'] > 0 and s['cross_script_shares'] > 0, s
