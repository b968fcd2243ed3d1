"""One benchmark run, in a fresh interpreter (started by ``run.py``).

Mirrors ``run_once`` through the public API: ``build_workload`` ->
``build_system`` -> warm-up ``sim.run`` -> one ``sim.step()`` per
measured tick, closed loop (each tick starts when the previous one
returns). Published answers are checked against the brute-force
oracle outside the timed region. Timed end-to-end metrics are
rescaled to a fixed host speed (``hostref.py``); the raw wall times
go into the record's ``wall``. Prints one JSON record as the last
line of standard output.

    python3 perfbench/child.py --workload broadcast-rwp --seed 1 \
        --ticks 100 --setups 3 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.api import (  # noqa: E402
    EngineConfig,
    RebalancePolicy,
    RunConfig,
    ShardConfig,
    WorkloadSpec,
    brute_knn_ids,
    build_system,
    build_workload,
    is_valid_knn,
)

import hostref  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_EVERY,
    K,
    N_QUERIES,
    SETUP_REFS,
    SMOKE_OBJECTS,
    WARMUP_TICKS,
    WORKLOADS,
    Workload,
)

clock = time.perf_counter


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": git_rev(),
    }


def calibrate() -> float:
    """Seconds for a fixed numpy + pure-Python loop (recorded only)."""
    a = np.random.default_rng(0).random(200_000)
    t0 = clock()
    for _ in range(5):
        np.sort(a)
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return clock() - t0


def make_run(w: Workload, seed: int, ticks: int, smoke: bool):
    """The ``WorkloadSpec``, ``RunConfig`` and ``build_workload`` kwargs.

    The vectorized path is selected with ``fast=True`` only while
    ``RunConfig`` and ``build_workload`` still take a ``fast`` argument.
    """
    spec_kw: Dict[str, Any] = dict(
        n_objects=SMOKE_OBJECTS if smoke else w.n_objects,
        n_queries=N_QUERIES,
        k=K,
        ticks=WARMUP_TICKS + ticks,
        warmup_ticks=WARMUP_TICKS,
        seed=seed,
        mobility=w.mobility,
        mobility_options=dict(w.mobility_options),
    )
    if w.query_speed is not None:
        spec_kw["query_speed"] = w.query_speed
    cfg_kw: Dict[str, Any] = {}
    if "fast" in {f.name for f in dataclasses.fields(RunConfig)}:
        cfg_kw["fast"] = True
    if w.engine is not None:
        cfg_kw["engine"] = EngineConfig(mode=w.engine)
    if w.shard_side is not None:
        cfg_kw["shard"] = ShardConfig(
            shards=w.shard_side, rebalance=RebalancePolicy()
        )
    build_kw = (
        {"fast": True}
        if "fast" in inspect.signature(build_workload).parameters
        else {}
    )
    return WorkloadSpec(**spec_kw), RunConfig(w.algorithm, **cfg_kw), build_kw


def setup(spec, cfg, build_kw) -> Tuple[Any, Any, Any, Dict[str, float]]:
    """Build the workload and the system and run the warm-up."""
    t0 = clock()
    fleet, queries = build_workload(spec, **build_kw)
    t1 = clock()
    sim = build_system(cfg, fleet, queries)
    t2 = clock()
    sim.run(spec.warmup_ticks)
    t3 = clock()
    parts = {
        "workloads.build_s": t1 - t0,
        "experiments.build_system_s": t2 - t1,
        "net.warmup_s": t3 - t2,
    }
    return fleet, queries, sim, parts


def check_answers(fleet, queries, server) -> Tuple[int, int, List[int]]:
    """(checked, valid, failing qids) for every query's published answer."""
    positions = fleet.positions
    answers = server.answers
    valid = 0
    failing: List[int] = []
    for q in queries:
        qx, qy = positions[q.focal_oid]
        exclude = frozenset((q.focal_oid,))
        truth = brute_knn_ids(positions, qx, qy, q.k, exclude)
        if not is_valid_knn(positions, qx, qy, q.k, truth, exclude):
            raise RuntimeError(f"oracle answer for query {q.qid} is invalid")
        got = answers.get(q.qid)
        if got is not None and is_valid_knn(positions, qx, qy, q.k, got, exclude):
            valid += 1
        else:
            failing.append(q.qid)
    return len(queries), valid, failing


def tail(times_ms: List[float]) -> Tuple[float, str, int]:
    """The highest of p99/p95/p90 with >= 10 ticks beyond it.

    Short smoke runs fall back to lower percentiles, then to the max.
    Returns (value, percentile label, ticks beyond it).
    """
    n = len(times_ms)
    ordered = sorted(times_ms)
    for pct in (99, 95, 90, 75, 50):
        beyond = int(n * (100 - pct) / 100)
        if beyond >= 10:
            return ordered[n - beyond - 1], f"p{pct}", beyond
    return ordered[-1], "max", 0


def counters(sim) -> Dict[str, Any]:
    """Cumulative counters read at the window edges."""
    server = sim.server
    stats = sim.channel.stats
    out: Dict[str, Any] = {
        "msgs": stats.total_messages,
        "bytes": stats.total_bytes,
        "columnar": stats.columnar_messages,
        "materialized": stats.materialized_messages,
        "s2s": stats.server_to_server_messages,
        "units": server.meter.total,
        "repairs": sum(getattr(server, "repair_count", {}).values()),
    }
    shard_stats = getattr(server, "shard_stats", None)
    if shard_stats is not None:
        out["migrations"] = shard_stats.migrations
        out["cells_moved"] = shard_stats.cells_moved
    driver = getattr(sim, "_driver", None)
    if driver is not None:
        st = driver.stats()
        out["skipped"] = st["skipped_ticks"]
        out["full"] = st["full_ticks"]
    return out


def layer_metrics(
    rec: spans.SpanRecorder, ticks: int, missing: List[str]
) -> Dict[str, float]:
    """Per-layer self-time in ms per tick and calls per tick."""
    self_s, calls = rec.aggregate()

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names) / ticks

    def per_tick(name: str) -> float:
        return calls.get(name, 0) / ticks

    out = {
        "net.step_self_ms": ms(spans.TICK),
        "net.collect_ms": ms("net.collect"),
        "net.subrounds_per_tick": per_tick("net.collect"),
        "mobility.advance_ms": ms("mobility.advance"),
        "mobility.advance_calls": per_tick("mobility.advance"),
        "core.client_ms": ms("core.client"),
        "core.client_calls": per_tick("core.client"),
        "core.deliver_area_ms": ms("core.deliver_area"),
        "core.deliver_area_calls": per_tick("core.deliver_area"),
        "core.deliver_batch_ms": ms("core.deliver_batch"),
        "server.subround_ms": ms("server.subround"),
        "server.uplink_batch_ms": ms("server.uplink_batch"),
        "server.message_ms": ms("server.message"),
        "server.message_calls": per_tick("server.message"),
        "server.tick_hooks_ms": ms("server.tick_start", "server.tick_end"),
    }
    if "sharding" not in missing:
        out["sharding.self_ms"] = ms(
            *(f"sharding.{short}" for _, short in spans.SERVER_HOOKS)
        )
    if "engine" not in missing:
        out["engine.replan_ms"] = ms("engine.replan")
        out["engine.skip_ms"] = ms("engine.skip")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ticks", type=int, required=True)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here (.npz)")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    ticks = args.ticks
    calib_s = calibrate()
    spec, cfg, build_kw = make_run(w, args.seed, ticks, args.smoke)

    hostref.warm()
    setup_s: List[float] = []
    setup_wall_s: List[float] = []
    for _ in range(args.setups):
        sim = fleet = queries = None
        gc.collect()
        ref_ms = hostref.sample(SETUP_REFS)
        t0 = clock()
        fleet, queries, sim, parts = setup(spec, cfg, build_kw)
        setup_wall_s.append(clock() - t0)
        ref_ms += hostref.sample(SETUP_REFS)
        setup_s.append(setup_wall_s[-1] * hostref.scale(ref_ms))

    sim.run(w.settle_ticks)
    server = sim.server
    shard_stats = getattr(server, "shard_stats", None)
    n_samples = len(getattr(server, "imbalance_samples", ()))
    before = counters(sim)
    missing: List[str] = []
    rec = None
    if args.trace:
        rec = spans.SpanRecorder()
        missing = spans.install(
            rec, sim, sharded=w.shard_side is not None, engine=w.engine is not None
        )
    step = sim.step
    gc.collect()
    hostref.warm()

    times_ms: List[float] = []
    scaler = hostref.TickScaler()
    checked = valid = 0
    failures: List[Tuple[int, int]] = []
    oracle_s = 0.0
    for i in range(1, ticks + 1):
        t0 = clock()
        step()
        times_ms.append(1000.0 * (clock() - t0))
        scaler.after_tick(i, times_ms[-1])
        if i % CHECK_EVERY == 0 or i == ticks:
            t0 = clock()
            c, v, bad = check_answers(fleet, queries, server)
            oracle_s += clock() - t0
            checked += c
            valid += v
            failures.extend((sim.tick, qid) for qid in bad)
    after = counters(sim)
    delta = {k: after[k] - before[k] for k in before}
    ref_times_ms = scaler.rescale(times_ms)
    t_val, t_pct, t_beyond = tail(ref_times_ms)

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "ticks_per_s": 1000.0 * ticks / sum(ref_times_ms),
        "tick_ms_p50": statistics.median(ref_times_ms),
        "tick_ms_tail": t_val,
        "msgs_per_tick": delta["msgs"] / ticks,
        "bytes_per_tick": delta["bytes"] / ticks,
        "server_units_per_tick": delta["units"] / ticks,
        "exactness": valid / checked,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "net.columnar_share": delta["columnar"] / delta["msgs"] if delta["msgs"] else 0.0,
        "net.materialized_per_tick": delta["materialized"] / ticks,
        "core.repairs_per_tick": delta["repairs"] / ticks,
        "index.oracle_ms": 1000.0 * oracle_s / ticks,
        "answers_checked": checked,
    }
    # Layers a run was not configured with are idle: their counts are 0.
    if shard_stats is not None:
        samples = [v for _, v in server.imbalance_samples[n_samples:]]
        counts.update({
            "sharding.s2s_msgs_per_tick": delta["s2s"] / ticks,
            "sharding.migrations_per_tick": delta["migrations"] / ticks,
            "sharding.cells_moved": delta["cells_moved"] / ticks,
            "sharding.imbalance_windowed": (
                sum(samples) / len(samples) if samples else 1.0
            ),
        })
    elif w.shard_side is None:
        counts.update(dict.fromkeys((
            "sharding.s2s_msgs_per_tick", "sharding.migrations_per_tick",
            "sharding.cells_moved", "sharding.imbalance_windowed",
        ), 0.0))
    if "skipped" in delta:
        counts.update({
            "engine.skipped_ticks": delta["skipped"],
            "engine.full_ticks": delta["full"],
            "engine.skip_ratio": delta["skipped"] / ticks,
        })
    elif w.engine is None:
        counts.update(dict.fromkeys((
            "engine.skipped_ticks", "engine.full_ticks", "engine.skip_ratio",
        ), 0))

    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "ticks": ticks,
        "trace": args.trace,
        "host": host_info(),
        "calib_s": calib_s,
        "setup_runs_s": setup_s,
        "wall": {
            "setup_s": statistics.median(setup_wall_s),
            "ticks_per_s": 1000.0 * ticks / sum(times_ms),
            "tick_ms_p50": statistics.median(times_ms),
            "tick_ms_tail": tail(times_ms)[0],
        },
        "ref_ms_median": statistics.median(scaler.ref_ms),
        "ref_samples": len(scaler.ref_ms),
        "setup_parts": parts,
        "end_to_end": end_to_end,
        "tail_pct": t_pct,
        "tail_beyond": t_beyond,
        "counts": counts,
        "checked": checked,
        "valid": valid,
        "failures": failures[:20],
    }
    if rec is not None:
        layers = layer_metrics(rec, ticks, missing)
        layers.update(parts)
        record["layers"] = layers
        record["missing_layers"] = missing
        record["loop_tick_ms"] = sum(times_ms) / ticks
        if args.spans:
            rec.save(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
