# EXPERIMENTS.md embeds every table the bench's figure mode prints between
# <!-- bench:ID --> markers: a block missing or extra on either side fails,
# and so does any difference in a deterministic block; host blocks (wall
# times, "host" in the opening marker) must exist but are not compared.
# Usage: python3 check_blocks.py EXPERIMENTS.md bench-figures.md
import difflib, re, sys
def blocks(path):
    text = open(path).read()
    found = re.findall(r'<!-- bench:([\w-]+)( host)? -->\n(.*?)<!-- /bench:\1 -->', text, re.S)
    opened = re.findall(r'<!-- bench:', text)
    ids = [b[0] for b in found]
    assert len(opened) == len(found), '%s: %d markers, %d closed blocks' % (path, len(opened), len(found))
    assert len(set(ids)) == len(ids), '%s: duplicate block ids' % path
    return {i: (bool(host), body) for i, host, body in found}
doc_path, bench_path = sys.argv[1:3]
doc, bench = blocks(doc_path), blocks(bench_path)
bad = []
for i in sorted(set(doc) | set(bench)):
    if i not in doc:
        bad.append('%s: printed by the bench, missing from %s' % (i, doc_path))
    elif i not in bench:
        bad.append('%s: in %s, not printed by the bench' % (i, doc_path))
    elif doc[i][0] != bench[i][0]:
        bad.append('%s: host marker differs' % i)
    elif not bench[i][0] and doc[i][1] != bench[i][1]:
        bad.append('%s: differs\n%s' % (i, ''.join(difflib.unified_diff(
            doc[i][1].splitlines(True), bench[i][1].splitlines(True), doc_path, bench_path))))
print('\n'.join(bad) or '%d blocks match (%d host blocks not compared)'
      % (len(bench), sum(h for h, _ in bench.values())))
sys.exit(1 if bad else 0)
