"""The benchmark's workloads and metric catalogue.

Plain data only: the parent process (``run.py``) reads this module
without importing the package under test, and the child
(``child.py``) turns each entry into a ``WorkloadSpec`` and a
``RunConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: queries and k of every workload
N_QUERIES = 16
K = 8
#: warm-up ticks run inside set-up (the O(N) registration burst)
WARMUP_TICKS = 5
#: ticks between answer checks against the brute-force oracle; the
#: last measured tick is always checked too
CHECK_EVERY = 10
#: set-ups per untraced run; set-up time is their median
SETUPS = 3
#: host-speed reference samples taken before and after each set-up
SETUP_REFS = 5
#: fewest measured ticks: the tail percentile needs >= 10 ticks beyond p90
MIN_TICKS = 100


@dataclass(frozen=True)
class Workload:
    algorithm: str
    n_objects: int
    why: str
    mobility: str = "random_waypoint"
    mobility_options: Dict[str, Any] = field(default_factory=dict)
    query_speed: Optional[float] = None
    engine: Optional[str] = None
    #: ``ShardConfig(shards=...)`` side, with a default RebalancePolicy
    shard_side: Optional[int] = None
    #: measured windows are whole multiples of this many ticks, so the
    #: skip/migration mix does not depend on where a window is cut
    period: int = 1
    #: untimed ticks between set-up and the measured window, to let a
    #: mobility transient pass
    settle_ticks: int = 0
    #: mean wall ms of one measured tick, measured on a shared 2-vCPU
    #: Xeon VM (Python 3.11, numpy 2.4); turns ``--seconds`` into a
    #: fixed tick count, so counts repeat exactly
    nominal_tick_ms: float = 100.0


WORKLOADS: Dict[str, Workload] = {
    "broadcast-rwp": Workload(
        algorithm="DKNN-B",
        n_objects=50_000,
        why="broadcast delivery and the client phase dominate the tick",
        nominal_tick_ms=180.0,
    ),
    "commute-rush-event": Workload(
        algorithm="DKNN-P",
        n_objects=100_000,
        why="event engine: quiet stretches skipped, rush hours replan heavily",
        mobility="mostly_stationary",
        mobility_options={
            "moving_fraction": 0.1,
            "period": 100,
            "active_ticks": 30,
        },
        query_speed=0.0,
        engine="event",
        period=100,
        nominal_tick_ms=37.0,
    ),
    "hotspot-sharded": Workload(
        algorithm="DKNN-P",
        n_objects=50_000,
        why="only workload on the shard tier: uplink routing and cell migration",
        mobility="hotspot_drift",
        mobility_options={"n_hotspots": 3, "zipf_s": 1.0, "drift_period": 50},
        shard_side=4,
        period=50,
        settle_ticks=50,
        nominal_tick_ms=90.0,
    ),
    "centralized-per": Workload(
        algorithm="PER",
        n_objects=10_000,
        why="server-bound: the PER full scan is nearly the whole tick",
        nominal_tick_ms=290.0,
    ),
}

#: objects per workload in ``--smoke`` mode
SMOKE_OBJECTS = 1_500
SMOKE_TICKS = 20


def measured_ticks(w: Workload, seconds: float) -> int:
    """Ticks in the measured window for a ``seconds``-long run.

    A whole number of ``w.period`` periods, at least ``MIN_TICKS``,
    closest to ``seconds`` at the workload's nominal tick cost. The
    count depends only on the arguments, never on the host.
    """
    periods = round(seconds * 1000.0 / w.nominal_tick_ms / w.period)
    return w.period * max(math.ceil(MIN_TICKS / w.period), periods)


#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "setup_s": "s",
    "ticks_per_s": "ticks/s",
    "tick_ms_p50": "ms",
    "tick_ms_tail": "ms",
    "msgs_per_tick": "msgs",
    "bytes_per_tick": "B",
    "server_units_per_tick": "units",
    "exactness": "fraction",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs): name -> unit
PER_LAYER = {
    "workloads.build_s": "s",
    "experiments.build_system_s": "s",
    "net.warmup_s": "s",
    "mobility.advance_ms": "ms/tick",
    "mobility.advance_calls": "calls/tick",
    "core.client_ms": "ms/tick",
    "core.client_calls": "calls/tick",
    "core.deliver_area_ms": "ms/tick",
    "core.deliver_area_calls": "calls/tick",
    "core.deliver_batch_ms": "ms/tick",
    "core.repairs_per_tick": "repairs/tick",
    "net.step_self_ms": "ms/tick",
    "net.collect_ms": "ms/tick",
    "net.subrounds_per_tick": "calls/tick",
    "net.columnar_share": "fraction",
    "net.materialized_per_tick": "msgs/tick",
    "server.subround_ms": "ms/tick",
    "server.uplink_batch_ms": "ms/tick",
    "server.message_ms": "ms/tick",
    "server.message_calls": "calls/tick",
    "server.tick_hooks_ms": "ms/tick",
    "sharding.self_ms": "ms/tick",
    "sharding.s2s_msgs_per_tick": "msgs/tick",
    "sharding.migrations_per_tick": "count/tick",
    "sharding.cells_moved": "cells/tick",
    "sharding.imbalance_windowed": "ratio",
    "engine.replan_ms": "ms/tick",
    "engine.skip_ms": "ms/tick",
    "engine.skipped_ticks": "ticks",
    "engine.full_ticks": "ticks",
    "engine.skip_ratio": "fraction",
    "index.oracle_ms": "ms/tick",
    "answers_checked": "count",
    "bench.trace_overhead": "ratio",
}
