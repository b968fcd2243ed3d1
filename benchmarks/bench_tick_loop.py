"""Benchmark: tick loop, scalar reference vs the vectorized path.

Quick mode runs the CI-sized configuration; ``REPRO_BENCH_FULL=1`` runs
the full ``tickbench`` suite (the one that produces ``BENCH_tick.json``
at the repo root). Either way the measured speedups land in
``extra_info`` and the comparison refuses to report a ratio over runs
that did different work (message totals must match bit for bit).
"""

from __future__ import annotations

from benchmarks._common import FULL

from repro.experiments.tickbench import (
    SUITE,
    VEC,
    _make_spec,
    compare_tick_loop,
)


def test_tick_loop_fast_vs_scalar(benchmark):
    holder = {}

    def run():
        if FULL:
            rows = []
            for entry in SUITE:
                spec = _make_spec(entry["spec"], entry["ticks"])
                for algorithm in entry["algorithms"]:
                    row = compare_tick_loop(algorithm, spec)
                    row["config"] = entry["config"]
                    rows.append(row)
            holder["rows"] = rows
        else:
            spec = _make_spec(dict(n_objects=2000, n_queries=8, k=8), 15)
            holder["rows"] = [
                compare_tick_loop(alg, spec) for alg in ("DKNN-P", "DKNN-B")
            ]

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]
    print()
    for row in rows:
        print(
            f"{row.get('config', 'quick'):<12} {row['algorithm']:<8} "
            f"scalar {row['scalar']['ms_per_tick']:>9.1f} ms/tick  "
            f"vectorized {row[VEC]['ms_per_tick']:>9.1f} ms/tick  "
            f"speedup {row['speedup']:>6.2f}x"
        )
        benchmark.extra_info[
            f"{row.get('config', 'quick')}/{row['algorithm']}"
        ] = row["speedup"]
    assert rows
    # The broadcast variant's delivery-side wins are the robust signal;
    # DKNN-P is message-bound and its small-N ratio sits in noise.
    dknn_b = [r for r in rows if r["algorithm"] == "DKNN-B"]
    assert all(r["speedup"] >= 1.0 for r in dknn_b)
