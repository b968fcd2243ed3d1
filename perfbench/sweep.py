"""Run workloads x seeds through ``run.py``, one run at a time.

    python3 perfbench/sweep.py --out perfbench/out/base.jsonl --seeds 1-10
    python3 perfbench/sweep.py --out perfbench/out/base.jsonl \
        --workloads broadcast-rwp,centralized-per --seeds 1,2,3 --trace 1

Each run appends its record to ``--out``; summarize or compare the
files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args(argv)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    failed = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace, "--out", args.out],
                stdout=subprocess.PIPE,
                text=True,
            )
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed={seed} exit={proc.returncode} {last[0][:160]}",
                  flush=True)
            failed += proc.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
