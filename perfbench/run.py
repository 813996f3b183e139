#!/usr/bin/env python3
"""Build the benchmark executable and run one workload.

    python3 perfbench/run.py --workload hhvm|clang|fleet --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  The executable is built from source
with dune into .bench_build/ and run in its own process; its standard
output is passed through, the last line being the JSON result.  Exits
non-zero, printing no result, when the build or the run fails.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("hhvm", "clang", "fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here")
    start = time.time()
    code, _ = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        BUILD_TIMEOUT_S, sys.stderr)
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")
    # the run gets its own budget; only a fresh build may take longer
    code, out = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--golden", os.path.join(HERE, "golden.txt"),
         "--spec", "BENCHMARK.json"],
        RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        fail("workload %s exited with code %d" % (args.workload, code))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result object")
    sys.stdout.write(out)
    print("perfbench: %s done in %.1fs" % (args.workload, time.time() - start),
          file=sys.stderr)


if __name__ == "__main__":
    main()
