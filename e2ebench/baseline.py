#!/usr/bin/env python3
"""Summarise repeated rexbench runs into a baseline (BASELINE.json).

Run from the repository root:

    python3 e2ebench/baseline.py --runs 10 > e2ebench/BASELINE.json

Each workload runs --runs times through run.py, each time with another
seed, at BENCHMARK.json's run_seconds. The output holds, per workload
and end-to-end metric, the median, quartiles and run count, plus the
host stamp of the first run. With --from DIR it summarises the
<workload>-<seed>.out files a previous set of runs left there instead.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 222, 1033, 1500, 2048, 2999, 37, 404, 777, 2500)


def parse(text):
    """The host stamp and the result of one run's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    host = json.loads(lines[-2][len("# host "):])
    return host, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--from", dest="source")
    args = parser.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

    runs = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        if args.source:
            texts = [open(path).read() for path in
                     sorted(glob.glob(os.path.join(args.source, workload + "-*.out")))]
        else:
            texts = []
            for seed in SEEDS[:args.runs]:
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                texts.append(subprocess.run(command, cwd=ROOT, check=True,
                                            stdout=subprocess.PIPE, text=True).stdout)
        runs[workload] = [parse(text) for text in texts]

    host = next(iter(runs.values()))[0][0]
    out = {"host": {key: host[key] for key in
                    ("nproc", "cpu", "compiler", "build_type", "jobs", "rexd_flags")},
           "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload, results in runs.items():
        assert all(result["correct"] for _, result in results), workload
        metrics = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [result["metrics"][name]["value"] for _, result in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": metric["unit"], "median": statistics.median(values),
                             "q1": q1, "q3": q3, "runs": len(values),
                             "spread": (q3 - q1) / statistics.median(values)}
        out["workloads"][workload] = metrics
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
