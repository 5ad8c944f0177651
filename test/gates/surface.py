# Library surface: a val in lib/**/*.mli needs a caller outside its own
# module in lib/, bin/, bench/, perfbench/ or examples/ (a module path, an
# alias or an open all count; test/ does not), and so does every field of
# an exported record type (an access or a record label, matched by name).
# The allow-list names each exception with its reason; an entry that gains
# a caller or loses its val or field fails too, so it cannot go stale.
# Usage, from the repository root: python3 test/gates/surface.py
import os, re, sys
STATE = 'internal state of a record whose other fields are read outside; a single field cannot be hidden'
ALLOW = {
    'Diag.find_entry': 'mutation corpus: each mutation code must be registered',
    'Memo_audit.winner_loc': 'mutation library helper',
    'Sharing_audit.candidates_diags': 'mutation library helper',
    'Sharing_audit.plan_diags': 'mutation library helper',
    'Memo_audit.cost_diags': 'seam: the memo audit is checked against a per-winner reference',
    'Trace_audit.run': 'seam: SA045 edge cases on synthetic traces',
    'Plan_check.sorted_on_keys': 'seam: sortedness edge cases of the plan checker',
    'Plan_check.co_partitioned': 'seam: co-partitioning edge cases of the plan checker',
    'Reqprops.part_satisfied': 'seam: the partitioning satisfaction rules',
    'Rank.repartition_cost': 'seam: the Section VIII-B savings formula',
    'Rank.savings': 'seam: the Section VIII-B savings formula',
    'Large_gen.filler_sizes': 'seam: LS scripts hit their exact operator count',
    'Random_gen.generate': 'random scripts, planned for perfbench',
    'Random_gen.catalog': 'random scripts, planned for perfbench',
    'Batch.t.len': 'the columnar contract of batch.mli, which the executor tests check field by field',
    'Batch.t.sel': 'the columnar contract of batch.mli, which the executor tests check field by field',
    'Catalog.col_stats.ndv': 'read through Catalog.col_ndv',
    'Catalog.file_stats.path': 'the key Catalog.register files the statistics under',
    'Catalog.file_stats.columns': 'read through Catalog.file_schema and Catalog.col_ndv',
    'Diag.t.code': 'read by the tests and the mutation harness, which check the code each pass reports',
    'Diag.t.severity': 'read by the tests and the mutation harness, which check the code each pass reports',
    'Diag.t.loc': 'read by the tests and the mutation harness, which check the code each pass reports',
    'Diag.t.message': 'read by the tests and the mutation harness, which check the code each pass reports',
    'Diag.entry.ecode': 'mutation corpus: the catalog entry behind Diag.find_entry',
    'Diag.entry.eseverity': 'mutation corpus: the catalog entry behind Diag.find_entry',
    'Diag.entry.layer': 'mutation corpus: the catalog entry behind Diag.find_entry',
    'Diag.entry.describe': 'mutation corpus: the catalog entry behind Diag.find_entry',
    'Intern.map.tail': 'the interner\'s private link to a map\'s extensions',
    'Phase2.state.si': 'read through Phase2.shared_info, which fails before phase 1 has set it',
    'Engine.t.faults': STATE,
    'Engine.t.extract_mu': STATE,
    'Engine.t.extract_cache': STATE,
    'Engine.t.outputs_rev': STATE,
    'Engine.t.verify_props': STATE,
    'Memo.t.groups': STATE,
    'Optimizer.t.rule_firings': STATE,
    'Optimizer.t.observe': STATE,
}
CALLERS = ('lib', 'bin', 'bench', 'perfbench', 'examples')

def sources(d, ext):
    for dp, _, fs in os.walk(d):
        if '_build' not in dp:
            yield from (os.path.join(dp, f) for f in sorted(fs) if f.endswith(ext))

def uncomment(s):
    # nested comments; a '*)' outside a comment is text
    out, depth, last = [], 0, 0
    for m in re.finditer(r'\(\*|\*\)', s):
        if m.group() == '(*':
            if not depth: out.append(s[last:m.start()])
            depth += 1
        elif depth: depth -= 1
        else: continue
        last = m.end()
    if not depth: out.append(s[last:])
    return ''.join(out)

def unstring(s):
    s = re.sub(r'\{(\w*)\|.*?\|\1\}', '""', s, flags=re.S)
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', s, flags=re.S)

def heads(runs):
    # every module path X with `open X` (or `include X`) followed by a
    # non-word character: each run up to a dot, and the whole run
    return {r[:i] for r in runs for i in range(1, len(r) + 1) if i == len(r) or r[i] == '.'}

class Index:
    # what called() and read() ask of one caller file, found in one pass each
    def __init__(self, s):
        self.qual = set()  # P.x for every module path P
        for m in re.finditer(r"(?<![\w.])(?=([\w']+(?:\.[\w']+)+))", s):
            runs = m.group(1).split('.')
            self.qual.update('.'.join(runs[:j + 1]) for j in range(1, len(runs)))
        self.local = set(re.findall(r"(?<![\w.])(?=([\w']+(?:\.[\w']+)*)\.\()", s))
        opened = re.findall(r'\b(open!?|include)\s+(?=([\w.]+))', s)
        self.opens = heads(r for k, r in opened if k != 'include')
        self.heads = heads(r for _, r in opened)
        self.names = set(re.findall(r"(?<![\w'.])[\w']+", s))
        self.aliases = re.findall(r'\bmodule\s+(\w+)\s*=\s*([\w.]+)', s)
        c, self.dots, self.labels = unstring(s), {}, {}
        # x.f, M.f and (e).f by field, with their spans
        for m in re.finditer(r"(?<![\w'])(?=([A-Za-z_][\w']*)\.([\w']+))|(?=[)\]]\.([\w']+))", c):
            mod, name = m.group(1), m.group(2) or m.group(3)
            self.dots.setdefault(name, []).append((m.start(), m.start() + len(mod or ')') + 1 + len(name), mod))
        # labels after {, ; or with, by field, with their module prefixes
        for pre, name in re.findall(r"(?:\{|;|\bwith\b)\s*((?:[A-Z][\w']*\.)*)([a-z_][\w']*)\s*(?=[=;}])(?!==)", c):
            self.labels.setdefault(name, []).append(pre)

index = {f: Index(uncomment(open(f).read())) for d in CALLERS for f in sources(d, ('.ml', '.mli'))}
libname = {}
for d in os.listdir('lib'):
    m = re.search(r'\(name\s+(\w+)\)', open(f'lib/{d}/dune').read()) if os.path.exists(f'lib/{d}/dune') else None
    if m: libname[f'lib/{d}'] = m.group(1).capitalize()

def vals(mli):
    path, kinds = [os.path.basename(mli)[:-4].capitalize()], []
    for line in uncomment(open(mli).read()).splitlines():
        m = re.match(r'\s*module\s+(\w+)\s*:\s*sig\b', line)
        if m: path.append(m.group(1)); kinds.append(True); continue
        if re.search(r'\bsig\b', line): kinds.append(False)
        if re.match(r'\s*end\b', line) and kinds:
            if kinds.pop(): path.pop()
            continue
        m = re.match(r'\s*val\s+([a-z_][\w\']*)', line)
        if m: yield list(path), m.group(1)

def called(mli, path, name):
    d, top, inner = os.path.dirname(mli), path[0], ''.join('.' + p for p in path[1:])
    own = (mli[:-1], mli)
    for f, ix in index.items():
        if f in own: continue
        mods = [f'{libname[d]}.{top}']
        if os.path.dirname(f) == d or libname[d] in ix.opens:
            mods.append(top)
        for alias, target in ix.aliases:
            if target in mods: mods.append(alias)
        paths = [m + inner for m in mods] + ([path[-1]] if inner else [])
        for p in paths:
            if f'{p}.{name}' in ix.qual: return True
            if (p in ix.heads or p in ix.local) and name in ix.names: return True
    return False

def fields(mli):
    # (owner, field) per field of a record type or an inline record
    top = os.path.basename(mli)[:-4].capitalize()
    s = unstring(uncomment(open(mli).read()))
    for m in re.finditer(r'\b(?:type|and)\s+(?:\([^)]*\)\s*|\'\w+\s+)?(\w+)\s*=\s*(?:[\w.]+\s*=\s*)?'
                         r'(?:private\s+)?\{([^}]*)\}|\b([A-Z]\w*)\s+of\s*\{([^}]*)\}', s):
        owner, body = (m.group(1), m.group(2)) if m.group(1) else (m.group(3), m.group(4))
        for f in re.finditer(r'(?:^|;)\s*(?:mutable\s+)?([a-z_][\w\']*)\s*:', body):
            yield [top, owner], f.group(1)

def read(mli, top, name):
    own = (mli[:-1], mli)
    for f, ix in index.items():
        if f in own: continue
        end = 0  # one left-to-right pass of non-overlapping matches
        for start, stop, mod in ix.dots.get(name, ()):
            if start < end: continue
            if mod is None or mod[0].islower() or mod == top: return True
            end = stop
        if any(not pre or pre.endswith(top + '.') for pre in ix.labels.get(name, ())): return True
    return False

unused = []
for mli in sources('lib', '.mli'):
    for path, name in vals(mli):
        q = '.'.join(path + [name])
        if (q in ALLOW) == called(mli, path, name):
            unused.append(f'{mli}: {q}' + (' has a caller: drop it from the allow-list' if q in ALLOW else ''))
    for path, name in fields(mli):
        q = '.'.join(path + [name])
        if (q in ALLOW) == read(mli, path[0], name):
            unused.append(f'{mli}: field {q}' + (' has a reader: drop it from the allow-list' if q in ALLOW else ''))
exported = {'.'.join(p + [n]) for m in sources('lib', '.mli') for p, n in list(vals(m)) + list(fields(m))}
for q in sorted(set(ALLOW) - exported):
    unused.append(f'allow-list names a val or field that no longer exists: {q}')
print('\n'.join(unused) or 'every lib export has a caller outside its module')
sys.exit(1 if unused else 0)
