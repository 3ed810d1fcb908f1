#!/usr/bin/env python3
"""Build and run rex's end-to-end benchmark (rexbench).

Run from the repository root:

    python3 e2ebench/run.py --workload suite-matrix --seed 1 --seconds 15 --trace 0

The first run configures and builds rexbench and rexd from the
repository's sources into .bench_build/e2ebench (an optimised
RelWithDebInfo build); later runs reuse it. Build output goes to
stderr; stdout carries rexbench's output, whose last line is the result
object. See e2ebench/README.md for workloads and metrics.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("suite-matrix", "hammer-random", "rexd-mix")
RUN_TIMEOUT_S = 175


def build():
    """Configure and build rexbench (and rexd) once per checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no rex sources next to the benchmark (src/ is missing)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "rexbench"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(BUILD, "rexbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out]
    sys.stdout.flush()
    # rexbench starts rexd daemons: its own session lets a timeout take
    # the whole group down.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("e2ebench: rexbench exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
