"""The repo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload broadcast-rwp --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of one untraced run;
``--trace 1`` runs the same seed untraced and then traced, checks that
both took the same path, and prints the per-layer metrics. Every run
happens in a fresh child interpreter (``child.py``), one at a time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--out FILE``
also appends the full record (host, calibration, raw wall times) to a
JSON-lines file that ``compare.py`` reads. ``--smoke`` runs every
workload at a tiny size and checks that every metric named in
``BENCHMARK.json`` is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SETUPS,
    SMOKE_TICKS,
    WORKLOADS,
    measured_ticks,
)

#: a run must end within this many seconds
BUDGET_S = 170.0
#: traced per-layer self-times must add up to the traced tick time
SUM_TOLERANCE = 0.03
#: numbers a traced and an untraced run of one seed must share exactly
SAME_PATH = {
    "end_to_end": ("msgs_per_tick", "bytes_per_tick", "server_units_per_tick"),
    "counts": ("net.columnar_share", "engine.skipped_ticks"),
}


class BenchError(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` with ``args``; return the record it prints."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget used up before the run started")
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def child_args(workload, seed, ticks, setups, trace, smoke, spans=None):
    args = [
        "--workload", workload, "--seed", str(seed), "--ticks", str(ticks),
        "--setups", str(setups), "--trace", str(trace),
    ]
    if smoke:
        args.append("--smoke")
    if spans:
        args += ["--spans", spans]
    return args


def result(runs, metrics, units, problems) -> Dict[str, Any]:
    """The printed result of ``runs``; wrong answers fail it."""
    for r in runs:
        if r["valid"] != r["checked"]:
            problems.append(f"wrong answers at (tick, qid) {r['failures']}")
    attempted = sum(r["checked"] for r in runs)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(r["valid"] for r in runs),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
        "problems": problems,
        "runs": runs,
    }


def untraced(workload, seed, ticks, smoke, deadline) -> Dict[str, Any]:
    rec = run_child(child_args(workload, seed, ticks, SETUPS, 0, smoke), deadline)
    return result([rec], rec["end_to_end"], END_TO_END, [])


def traced(workload, seed, ticks, smoke, deadline, spans=None) -> Dict[str, Any]:
    base = run_child(child_args(workload, seed, ticks, 1, 0, smoke), deadline)
    rec = run_child(child_args(workload, seed, ticks, 1, 1, smoke, spans), deadline)
    problems = []
    for group, names in SAME_PATH.items():
        for name in names:
            a, b = base[group].get(name), rec[group].get(name)
            if a != b:
                problems.append(f"traced run changed {name}: {a} != {b}")
    # Self-times of the layers inside a tick plus the step's own
    # self-time must account for the whole traced tick.
    span_ms = sum(v for k, v in rec["layers"].items() if k.endswith("_ms"))
    loop_ms = rec["loop_tick_ms"]
    gap = abs(span_ms - loop_ms) / loop_ms
    if gap > SUM_TOLERANCE:
        problems.append(
            f"layer self-times sum to {span_ms:.3f} ms/tick, traced tick "
            f"is {loop_ms:.3f} ms/tick ({100 * gap:.1f}% apart)"
        )
    for layer in rec["missing_layers"]:
        print(f"note: {layer} handle not found; its metrics are left out",
              file=sys.stderr)
    layers = {**rec["counts"], **rec["layers"]}
    layers["bench.trace_overhead"] = (
        rec["end_to_end"]["ticks_per_s"] / base["end_to_end"]["ticks_per_s"]
    )
    return result([base, rec], layers, PER_LAYER, problems)


def one(workload, seed, seconds, trace, smoke, deadline, spans=None):
    ticks = SMOKE_TICKS if smoke else measured_ticks(WORKLOADS[workload], seconds)
    if trace:
        return traced(workload, seed, ticks, smoke, deadline, spans)
    return untraced(workload, seed, ticks, smoke, deadline)


def report(result: Dict[str, Any]) -> None:
    run = result["runs"][-1]
    host = run["host"]
    print(
        f"# {run['workload']} seed={run['seed']} ticks={run['ticks']} "
        f"trace={run['trace']} python={host['python']} numpy={host['numpy']} "
        f"nproc={host['nproc']} rev={host['git_rev'][:12]} "
        f"calib_s={run['calib_s']:.4f} ref_ms={run['ref_ms_median']:.3f}"
    )
    if not run["trace"]:
        print(f"#   tick_ms_tail is {run['tail_pct']} "
              f"({run['tail_beyond']} of {run['ticks']} ticks beyond it)")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"FAILED: {p}")


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {...}}`` of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def smoke() -> int:
    """Every workload at a tiny size, both modes; every metric present."""
    declared = declared_metrics()
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            deadline = time.monotonic() + BUDGET_S
            res = one(workload, 1, 1.0, trace, True, deadline)
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != declared[key]:
                failures.append(
                    f"{workload} trace={trace}: emitted {got}, "
                    f"declared {declared[key]}"
                )
            if not res["correct"]:
                failures.append(f"{workload} trace={trace}: {res['problems']}")
            print(f"smoke {workload} trace={trace}: "
                  f"{len(got)} metrics, correct={res['correct']}")
    for f in failures:
        print(f"FAILED: {f}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    ap.add_argument("--spans", help="traced runs: write all spans to this .npz file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        deadline = time.monotonic() + BUDGET_S
        result = one(args.workload, args.seed, args.seconds, args.trace,
                     False, deadline, args.spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                **result,
            }) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
