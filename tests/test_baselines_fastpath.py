"""Edge-case bit-identity of the centralized baselines' vectorized path.

PER's fast build scans the dense grid as one numpy top-k per query; SEA
and CPM share one vectorized dirty detection. Each fast run here must
match the scalar reference on per-tick answers, ``CommStats`` by kind
and bytes, and meter units, on a hand-built fleet that stresses the
corners: exact distance ties at the k-th boundary (co-located and
equidistant objects), ``k >= population - 1``, PER's ``period``, a
FaultPlan that silences focal objects (plane vetoed), one-tick latency
and the sharded tier. Every fast run also proves the vectorized branch
ran: the scalar ``_process`` is made to fail, and each tick must go
through ``_process_entries``.
"""

from __future__ import annotations

import pytest

from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.geometry import Rect
from repro.mobility import FastFleet, Fleet, LinearMover, StationaryMover
from repro.net.faults import FaultPlan
from repro.net.simulator import ONE_TICK_LATENCY
from repro.server import QuerySpec
from repro.server.config import ShardConfig

U = Rect(0.0, 0.0, 1_000.0, 1_000.0)
TICKS = 15
#: focal objects of the fault case: one down from the first tick (its
#: query is never answered), one blacked out mid-run
CRASHED_FOCAL = 0
BLACKOUT_FOCAL = 7


def _fleet(fleet_cls):
    movers = [StationaryMover(U, 500.0, 500.0)]  # 0: focal
    # 1-3 co-located, 4-6 equidistant: six objects at exactly 100.0
    movers += [StationaryMover(U, 600.0, 500.0) for _ in range(3)]
    movers += [
        StationaryMover(U, 400.0, 500.0),
        StationaryMover(U, 500.0, 600.0),
        StationaryMover(U, 500.0, 400.0),
    ]
    movers.append(LinearMover(U, 250.0, 250.0, 9.0, 4.0))  # 7: focal
    # 8, 9: a co-located pair moving in lockstep (permanent tie)
    movers += [LinearMover(U, 260.0, 240.0, -3.0, 5.0) for _ in range(2)]
    movers += [
        LinearMover(
            U, 100.0 + 80.0 * i, 950.0 - 30.0 * i,
            (-1) ** i * (5.0 + i), 3.0 + i % 4,
        )
        for i in range(10)
    ]
    return fleet_cls(movers, seed=3)


N = len(_fleet(Fleet).positions)
QUERIES = [
    QuerySpec(qid=0, focal_oid=0, k=3),  # tie among six at the boundary
    QuerySpec(qid=1, focal_oid=0, k=6),
    QuerySpec(qid=2, focal_oid=7, k=2),
    QuerySpec(qid=3, focal_oid=8, k=1),  # lockstep twin at distance 0
    QuerySpec(qid=4, focal_oid=12, k=N - 1),  # k = population - 1
    QuerySpec(qid=5, focal_oid=15, k=N + 4),  # k > population - 1
]

ALGORITHMS = {
    "PER": {},
    "PER-period3": {"params": {"period": 3}},
    "SEA": {},
    "CPM": {},
}
CASES = {
    "plain": {},
    "latency1": {"latency": ONE_TICK_LATENCY},
    "shards4": {"shard": ShardConfig(shards=4)},
    "faults": {
        "faults": FaultPlan(
            seed=5,
            drop_uplink=0.2,
            crashes=((CRASHED_FOCAL, 1),),
            blackouts=((BLACKOUT_FOCAL, 4, 9),),
        )
    },
}


def _run(algorithm, case, reference=False):
    cfg = RunConfig(
        algorithm.split("-")[0],
        record_history=True,
        **ALGORITHMS[algorithm],
        **CASES[case],
    )
    sim = build_system(cfg, _fleet(Fleet if reference else FastFleet), QUERIES)
    server = getattr(sim.server, "inner", sim.server)
    vectorized = []
    if not reference:
        def scalar_process(tick, updates):
            raise AssertionError("fast build fell back to the scalar scan")

        process_entries = server._process_entries

        def counted(tick, entries):
            vectorized.append(tick)
            process_entries(tick, entries)

        server._process = scalar_process
        server._process_entries = counted
    answers = []
    sim.run(
        TICKS,
        on_tick=lambda s: answers.append(
            {
                qid: tuple(a[-1][1])
                for qid, a in server.answer_history.items()
                if a
            }
        ),
    )
    stats = sim.channel.stats
    return {
        "answers": answers,
        "messages": dict(stats.sent_by_kind),
        "bytes": dict(stats.bytes_by_kind),
        "meter": dict(server.meter.units),
        "columnar": sum(stats.columnar_by_kind.values()),
        "vectorized": vectorized,
    }


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fast_matches_scalar_reference(algorithm, case):
    scalar = _run(algorithm, case, reference=True)
    fast = _run(algorithm, case)
    assert fast["answers"] == scalar["answers"]
    assert fast["messages"] == scalar["messages"]
    assert fast["bytes"] == scalar["bytes"]
    assert fast["meter"] == scalar["meter"]
    # every tick went through the vectorized branch ...
    assert fast["vectorized"] == list(range(1, TICKS + 1))
    # ... and the plane carried the reports unless a FaultPlan vetoed it
    assert scalar["columnar"] == 0
    assert (fast["columnar"] > 0) == (case != "faults")


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_silenced_focal_leaves_its_query_unanswered(algorithm):
    fast = _run(algorithm, "faults")
    crashed = [s.qid for s in QUERIES if s.focal_oid == CRASHED_FOCAL]
    assert crashed
    for tick_answers in fast["answers"]:
        # never heard from: the empty registration answer stands
        assert all(tick_answers[qid] == () for qid in crashed)
    assert all(
        ids for qid, ids in fast["answers"][-1].items() if qid not in crashed
    )


@pytest.mark.parametrize("algorithm", ("PER", "SEA", "CPM"))
def test_ties_break_by_oid(algorithm):
    fast = _run(algorithm, "plain")
    first = fast["answers"][0]
    assert first[0] == (1, 2, 3)  # six tied at 100.0: lowest oids win
    assert first[1] == (1, 2, 3, 4, 5, 6)
    assert first[3] == (9,)
    assert len(first[4]) == N - 1 and len(first[5]) == N - 1
