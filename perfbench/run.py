#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload oneshot_ls --seed 1 --seconds 25 --trace 0

Builds perfbench/main.exe, its probe server perfbench/probe.exe and
bin/scopeopt.exe with dune, runs the benchmark, and with --trace 1 also
checks the spans it wrote with `scopeopt check-trace`.  The benchmark's own output is passed through;
its last line is the JSON result record.  A build or trace-check failure
exits non-zero without printing a result; an output mismatch exits
non-zero after the result record, which then reads "correct": false.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["oneshot_ls", "serve_hot", "serve_churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "--display", "quiet",
                   "./perfbench/main.exe", "./perfbench/probe.exe",
                   "./bin/scopeopt.exe"],
                  BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)

    trace_file = os.path.join(
        "perfbench", "out", "trace-%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    code, out = run([os.path.join("_build", "default", "perfbench", "main.exe"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--nproc", str(nproc), "--trace-file", trace_file],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        # an output mismatch prints its result record (correct: false)
        sys.stdout.write(out)
        sys.stdout.flush()
        print("perfbench: benchmark failed (exit %d)" % code, file=sys.stderr)
        sys.exit(code)

    if args.trace == 1:
        check_code, check_out = run(
            [os.path.join("_build", "default", "bin", "scopeopt.exe"),
             "check-trace", trace_file],
            RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        if check_code != 0:
            sys.stderr.write(check_out)
            fail("scopeopt check-trace rejected " + trace_file)
        out = check_out + out

    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
