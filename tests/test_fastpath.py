"""Bit-identity of the vectorized path against the scalar spec.

Builds over a :class:`FastFleet` (the ``build_workload`` default) must
be *indistinguishable* from the scalar reference
(``build_workload(spec, reference=True)``): same per-tick answers,
same messages (count, kind, bytes, delivery accounting), same
cost-meter units, same fleet trajectories, same RNG stream — for every
protocol, and also under an active fault plan. These tests pin that
contract end to end; the unit-level counterparts for the index/oracle
live in ``test_index_vectorized.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.algorithms import ALGORITHMS, build_system
from repro.experiments.config import RunConfig
from repro.geometry import Rect
from repro.mobility import (
    FastFleet,
    FastReplayFleet,
    Fleet,
    GaussianClusterModel,
    LinearMover,
    RandomDirectionModel,
    RandomWaypointModel,
    ReplayFleet,
    StationaryMover,
    record_trace,
)
from repro.mobility.soa import is_vectorized
from repro.net.faults import FaultPlan
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec

TICKS = 25


def _run(algorithm, reference=False, faults=None, n=250, ticks=TICKS):
    spec = WorkloadSpec(
        ticks=ticks, warmup_ticks=0, seed=42, n_objects=n, n_queries=6, k=5
    )
    fleet, queries = build_workload(spec, reference=reference)
    cfg = RunConfig(algorithm, record_history=True, faults=faults)
    sim = build_system(cfg, fleet, queries)
    answers = []

    def snap(s):
        hist = getattr(s.server, "history", None)
        if hist is not None:
            answers.append(
                {qid: tuple(a[-1]) if a else None for qid, a in hist.items()}
            )

    sim.run(ticks, on_tick=snap)
    stats = sim.channel.stats
    meter = getattr(sim.server, "meter", None)
    return {
        "answers": answers,
        "messages": dict(stats.sent_by_kind),
        "bytes": dict(stats.bytes_by_kind),
        "delivered": (stats.delivered, stats.broadcast_receptions),
        "meter": dict(meter.units) if meter is not None else None,
        "positions": [tuple(p) for p in fleet.positions],
    }


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fast_path_bit_identical(algorithm):
    scalar = _run(algorithm, reference=True)
    fast = _run(algorithm)
    assert fast["positions"] == scalar["positions"]
    assert fast["messages"] == scalar["messages"]
    assert fast["bytes"] == scalar["bytes"]
    assert fast["delivered"] == scalar["delivered"]
    assert fast["meter"] == scalar["meter"]
    assert fast["answers"] == scalar["answers"]


@pytest.mark.parametrize(
    "algorithm,plan_kwargs",
    [
        (
            "DKNN-P",
            dict(
                seed=7,
                drop_uplink=0.08,
                drop_downlink=0.08,
                dup_prob=0.03,
                delay_prob=0.05,
                delay_ticks=2,
                blackouts=((13, 8, 12), (77, 15, 18)),
                crashes=((201, 20),),
            ),
        ),
        (
            "DKNN-B",
            dict(
                seed=11,
                drop_uplink=0.05,
                drop_downlink=0.05,
                dup_prob=0.02,
                delay_prob=0.04,
                delay_ticks=1,
            ),
        ),
        (
            "DKNN-G",
            dict(
                seed=11,
                drop_uplink=0.05,
                drop_downlink=0.05,
                dup_prob=0.02,
                delay_prob=0.04,
                delay_ticks=1,
                blackouts=((31, 5, 9),),
            ),
        ),
    ],
)
def test_fast_path_bit_identical_under_faults(algorithm, plan_kwargs):
    """The regression the fast path must survive: an active FaultPlan.

    Faulty channels consume the shared RNG stream per message and down
    nodes must be skipped in exactly the scalar order, so any fast-path
    deviation (extra send, reordered dispatch) shows up as a diverged
    run, not a subtle statistic.
    """
    scalar = _run(algorithm, reference=True, faults=FaultPlan(**plan_kwargs))
    fast = _run(algorithm, faults=FaultPlan(**plan_kwargs))
    assert fast["positions"] == scalar["positions"]
    assert fast["messages"] == scalar["messages"]
    assert fast["bytes"] == scalar["bytes"]
    assert fast["delivered"] == scalar["delivered"]
    assert fast["meter"] == scalar["meter"]
    assert fast["answers"] == scalar["answers"]


# -- which build the fleet selects --------------------------------------------

#: where each server keeps object positions. DKNN-B/G keep no table
#: (their answers come from collect replies), so for them only the
#: client phase marks the vectorized build.
_POSITION_STORE = {
    "DKNN-P": "table", "PER": "grid", "SEA": "grid", "CPM": "grid",
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_default_build_is_vectorized(algorithm):
    spec = WorkloadSpec(
        ticks=2, warmup_ticks=0, seed=42, n_objects=60, n_queries=2, k=3
    )
    fleet, queries = build_workload(spec)
    sim = build_system(RunConfig(algorithm), fleet, queries)
    assert is_vectorized(fleet)
    assert sim.client_phase is not None
    store = _POSITION_STORE.get(algorithm)
    if store is not None:
        assert getattr(sim.server, store)._dense
        assert sim.server.columnar
    # ... and the reference fleet selects the scalar build.
    fleet, queries = build_workload(spec, reference=True)
    ref = build_system(RunConfig(algorithm), fleet, queries)
    assert not is_vectorized(fleet)
    assert ref.client_phase is None
    assert not getattr(ref.server, "columnar", False)
    if store is not None:
        assert not getattr(ref.server, store)._dense


def test_soa_positions_compare_as_a_sequence():
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    scalar = Fleet.from_model(model, 30, seed=4)
    fast = FastFleet.from_model(model, 30, seed=4)
    assert fast.positions == scalar.positions
    assert scalar.positions == fast.positions
    assert fast.positions == FastFleet.from_model(model, 30, seed=4).positions
    fast.advance()
    assert fast.positions != scalar.positions
    assert fast.positions != scalar.positions[:-1]
    with pytest.raises(TypeError):
        hash(fast.positions)


# -- fleet backends -----------------------------------------------------------


UNIVERSE = Rect(0.0, 0.0, 5_000.0, 5_000.0)


def _trajectories(fleet, ticks=30):
    frames = [[tuple(p) for p in fleet.positions]]
    for _ in range(ticks):
        fleet.advance()
        frames.append([tuple(p) for p in fleet.positions])
    return frames


@pytest.mark.parametrize(
    "model_fn",
    [
        lambda: RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0),
        lambda: RandomDirectionModel(UNIVERSE, speed_min=15.0, speed_max=40.0),
        lambda: GaussianClusterModel(
            UNIVERSE, n_hotspots=5, sigma=300.0, speed_min=10.0, speed_max=35.0
        ),
    ],
    ids=["waypoint", "direction", "gaussian"],
)
def test_fast_fleet_matches_scalar_fleet(model_fn):
    scalar = Fleet.from_model(model_fn(), 120, seed=31)
    fast = FastFleet.from_model(model_fn(), 120, seed=31)
    assert _trajectories(fast) == _trajectories(scalar)
    # The shared RNG stream must be in the same state afterwards, or a
    # later consumer (a faulty channel) would diverge.
    assert fast._rng.random() == scalar._rng.random()


def test_fast_fleet_matches_scalar_fleet_mixed_movers():
    movers = [
        StationaryMover(UNIVERSE, 100.0 * i + 50.0, 200.0) for i in range(10)
    ] + [
        LinearMover(UNIVERSE, 50.0, 100.0 * i + 50.0, 12.5, -7.25)
        for i in range(10)
    ]
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    scalar = Fleet.from_model(model, 40, seed=8, extra_movers=movers)
    movers2 = [
        StationaryMover(UNIVERSE, 100.0 * i + 50.0, 200.0) for i in range(10)
    ] + [
        LinearMover(UNIVERSE, 50.0, 100.0 * i + 50.0, 12.5, -7.25)
        for i in range(10)
    ]
    model2 = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    fast = FastFleet.from_model(model2, 40, seed=8, extra_movers=movers2)
    assert _trajectories(fast) == _trajectories(scalar)


def test_fast_replay_fleet_matches_scalar_replay():
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    trace = record_trace(Fleet.from_model(model, 50, seed=3), 20)
    scalar = ReplayFleet(trace)
    fast = FastReplayFleet(trace)
    assert _trajectories(fast, ticks=20) == _trajectories(scalar, ticks=20)
