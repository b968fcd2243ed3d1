"""Summarize one result set, or diff two, per workload and metric.

    python3 perfbench/compare.py perfbench/out/base.jsonl
    python3 perfbench/compare.py perfbench/out/base.jsonl perfbench/out/head.jsonl

A result set is a JSON-lines file written by ``run.py --out`` (or
``sweep.py``). With one file, each row gives the run count, median,
quartiles and spread (quartile distance / median); end-to-end rows are
flagged when the spread exceeds the metric's bound in BENCHMARK.json.
With two files, each row gives both sides' median and quartiles and
the ratio head / base; end-to-end rows say whether the head median is
worse than the base median by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Values = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Values, Dict[str, str]]:
    """``{(workload, metric): [values]}`` and ``{metric: unit}``."""
    values: Values = defaultdict(list)
    units: Dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                values[(rec["workload"], name)].append(m["value"])
                units[name] = m["unit"]
    return values, units


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def bounds() -> Dict[str, Tuple[float, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def summarize(path: str) -> int:
    values, units = load(path)
    limits = bounds()
    over = 0
    print(f"{'workload':20s} {'metric':30s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s}  unit")
    for (workload, name), xs in sorted(values.items()):
        q1, med, q3 = quartiles(xs)
        spread = (q3 - q1) / med if med else 0.0
        flag = ""
        if name in limits and name != "setup_s":
            bound = limits[name][0]
            if spread > bound:
                flag, over = "  OVER BOUND", over + 1
            elif spread > bound / 3:
                flag = "  > bound/3"
        print(f"{workload:20s} {name:30s} {len(xs):3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f}  {units[name]}{flag}")
    return 1 if over else 0


def diff(base_path: str, head_path: str) -> int:
    base, units = load(base_path)
    head, _ = load(head_path)
    limits = bounds()
    worse = 0
    print(f"{'workload':20s} {'metric':30s} {'base median [q1, q3]':>36s} "
          f"{'head median [q1, q3]':>36s} {'head/base':>9s}")
    for key in sorted(set(base) & set(head)):
        workload, name = key
        b1, bm, b3 = quartiles(base[key])
        h1, hm, h3 = quartiles(head[key])
        ratio = hm / bm if bm else float("nan")
        verdict = ""
        if name in limits:
            bound, better = limits[name]
            change = (bm - hm) / bm if better == "higher" else (hm - bm) / bm
            if change > bound:
                verdict, worse = f"  WORSE by {100 * change:.1f}% (bound {100 * bound:.0f}%)", worse + 1
        print(f"{workload:20s} {name:30s} "
              f"{bm:12.6g} [{b1:10.5g}, {b3:10.5g}] "
              f"{hm:12.6g} [{h1:10.5g}, {h3:10.5g}] {ratio:9.4f}  "
              f"{units[name]}{verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?")
    args = ap.parse_args(argv)
    if args.head is None:
        return summarize(args.base)
    return diff(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
