#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs.

Prints a per-benchmark ratio table (old time / new time, so >1 means the
new run is faster) and optionally fails when any selected benchmark
regressed beyond a threshold.

Usage:
    compare_bench.py OLD.json NEW.json [--threshold 0.9] [--filter REGEX]
    compare_bench.py --list FILE.json

Runs recorded with --benchmark_repetitions are compared on their
_median aggregates, and each side's _cv (coefficient of variation) is
printed next to it. Runs without repetitions are compared on their
plain iteration entries, and their CV column reads "-".
"""

import argparse
import json
import re
import sys


def load(path):
    """Map each benchmark name to (time, unit, cv or None)."""
    with open(path) as f:
        data = json.load(f)
    plain, median, cv = {}, {}, {}
    for entry in data.get("benchmarks", []):
        if entry.get("error_occurred"):
            # real_time is 0 and would poison every ratio.
            continue
        name = entry.get("run_name", entry["name"])
        timing = (float(entry["real_time"]), entry.get("time_unit", "ns"))
        if entry.get("run_type", "iteration") == "iteration":
            plain[name] = timing
        elif entry.get("aggregate_name") == "median":
            median[name] = timing
        elif entry.get("aggregate_name") == "cv":
            cv[name] = float(entry["real_time"])
    out = {}
    for name, timing in plain.items():
        out[name] = (*timing, None)
    for name, timing in median.items():
        out[name] = (*timing, cv.get(name))
    return out


def fmt_cv(cv):
    return "-" if cv is None else f"{cv * 100:.1f}%"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="baseline benchmark JSON")
    parser.add_argument("new", nargs="?", help="candidate benchmark JSON")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark names/times of OLD and exit")
    parser.add_argument("--threshold", type=float, default=None,
                        help="fail (exit 1) if any compared benchmark's "
                             "speedup ratio falls below this value")
    parser.add_argument("--filter", default=None,
                        help="only compare benchmarks matching this regex")
    parser.add_argument("--require", action="append", default=[],
                        metavar="REGEX",
                        help="fail (exit 1) unless at least one compared "
                             "benchmark matches REGEX; repeatable. Guards "
                             "threshold gates against silently comparing "
                             "nothing when a benchmark is renamed or "
                             "dropped")
    args = parser.parse_args()

    old = load(args.old)
    if args.list:
        for name, (t, unit, cv) in sorted(old.items()):
            print(f"{name:50s} {t:12.0f} {unit:2s} cv {fmt_cv(cv)}")
        return 0
    if args.new is None:
        parser.error("NEW.json required unless --list")

    new = load(args.new)
    pattern = re.compile(args.filter) if args.filter else None

    names = [n for n in old if n in new]
    if pattern:
        names = [n for n in names if pattern.search(n)]
    if not names:
        print("no common benchmarks to compare", file=sys.stderr)
        return 1
    for required in args.require:
        if not any(re.search(required, n) for n in names):
            print(f"FAIL: no compared benchmark matches required "
                  f"pattern '{required}'", file=sys.stderr)
            return 1

    width = max(len(n) for n in names)
    print(f"{'benchmark':{width}s} {'old':>12s} {'old cv':>7s} "
          f"{'new':>12s} {'new cv':>7s} {'unit':>4s} {'speedup':>8s}")
    worst = None
    for name in sorted(names):
        old_t, unit, old_cv = old[name]
        new_t, _, new_cv = new[name]
        ratio = old_t / new_t if new_t else float("inf")
        print(f"{name:{width}s} {old_t:12.0f} {fmt_cv(old_cv):>7s} "
              f"{new_t:12.0f} {fmt_cv(new_cv):>7s} {unit:>4s} "
              f"{ratio:7.2f}x")
        if worst is None or ratio < worst[1]:
            worst = (name, ratio)

    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"only in {args.old}: {', '.join(only_old)}")
    if only_new:
        print(f"only in {args.new}: {', '.join(only_new)}")

    if args.threshold is not None and worst and worst[1] < args.threshold:
        print(f"FAIL: {worst[0]} speedup {worst[1]:.2f}x is below "
              f"threshold {args.threshold:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
