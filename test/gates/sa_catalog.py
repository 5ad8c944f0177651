# The codes of DESIGN.md's SA catalog table are exactly the codes
# `scopeopt lint --list-codes` prints from the registry in Diag.
# Usage: python3 sa_catalog.py SCOPEOPT DESIGN.md
import re, subprocess, sys
text = open(sys.argv[2]).read()
start = text.index('### SA catalog')
section = text[start:text.index('\n#', start + 1)]
doc = re.findall(r'^\| (SA\d+) \|', section, re.M)
out = subprocess.run([sys.argv[1], 'lint', '--list-codes'],
                     check=True, capture_output=True, text=True).stdout
binary = re.findall(r'^(SA\d+)\s', out, re.M)
only_doc = sorted(set(doc) - set(binary))
only_binary = sorted(set(binary) - set(doc))
dups = sorted({c for c in doc if doc.count(c) > 1})
print('DESIGN.md lists %d codes, the binary %d' % (len(doc), len(binary)))
assert not (only_doc or only_binary or dups), (only_doc, only_binary, dups)
