# Prints EXPERIMENTS.md with one digit changed: the first digit of S1's
# conventional_cost in Figure 7.  The block check must reject it.
# Usage: python3 mutate_digit.py EXPERIMENTS.md > experiments-mutated.md
import re, sys
text = open(sys.argv[1]).read()
row = text.index('| S1 | ', text.index('<!-- bench:fig7 -->')) + len('| S1 | ')
at = re.compile(r'\d').search(text, row).start()
sys.stdout.write(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])
