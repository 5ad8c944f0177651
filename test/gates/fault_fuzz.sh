# Fault-injection fuzz and batch-size sweep: `run` fails unless each
# seeded faulted run's outputs are byte-identical to the fault-free run's,
# at every batch size (test_exec.ml holds the in-process matrix).  LS1's
# partitions span several batches, so selection slicing, the concatenation
# before a sort and the merge exchange all run under faults.
# Usage: sh fault_fuzz.sh SCOPEOPT > fault-fuzz.log
set -e
for workers in 1 4; do
  for w in S1 S2 S3 S4 IND; do
    for seed in 1 2 3; do
      echo "== scopeopt run --builtin $w --inject-faults $seed --workers $workers"
      "$1" run --builtin "$w" --inject-faults "$seed" --fault-rate 0.3 \
        --workers "$workers"
    done
  done
done
for bs in 1 7 64 4096; do
  for w in S2 IND LS1; do
    echo "== scopeopt run --builtin $w --inject-faults 1 --batch-size $bs"
    "$1" run --builtin "$w" --inject-faults 1 --fault-rate 0.3 \
      --workers 4 --batch-size "$bs"
  done
done
