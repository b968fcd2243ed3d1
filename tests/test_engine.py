"""The event-scheduled engine: config surface and the equivalence pin.

DESIGN §15's contract is that ``EngineConfig(mode="event")`` changes
*when work happens*, never *what the protocol computes*: at every tick
boundary the published answers, the message counters and the mobility
RNG stream are identical to the synchronous tick loop. The tests here
run both modes tick by tick over the same workload and compare answers
after every single tick — across algorithms, under a FaultPlan, under
the sharded tier, and with one-tick latency.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.net.engine import (
    ENGINE_MODES,
    EngineConfig,
    EventDriver,
    ReplayConfig,
    engine_attach,
)
from repro.net.faults import FaultPlan
from repro.server.config import ShardConfig
from repro.workloads import WorkloadSpec, build_workload

#: Mostly-silent workload: small enough for test time, still skippable.
SPEC = WorkloadSpec(
    n_objects=250,
    n_queries=4,
    k=4,
    universe_size=2000.0,
    mobility="mostly_stationary",
    mobility_options={"moving_fraction": 0.08, "period": 20, "active_ticks": 5},
    query_speed=0,
    ticks=40,
    warmup_ticks=3,
    seed=11,
)
TICKS = 40


def _run(
    cfg: RunConfig,
    spec: WorkloadSpec = SPEC,
    ticks: int = TICKS,
    reference: bool = True,
):
    """Run one config tick by tick; return per-tick answers + stats.

    The engine contracts are pinned on the scalar reference build unless
    ``reference=False`` asks for the vectorized one.
    """
    fleet, queries = build_workload(spec, reference=reference)
    sim = build_system(cfg, fleet, queries)
    per_tick = []

    def observe(s) -> None:
        per_tick.append(
            {q.qid: frozenset(s.server.answers[q.qid]) for q in queries}
        )

    sim.run(ticks, on_tick=observe)
    driver = getattr(sim, "_driver", None)
    # CommStats is counters all the way down and has no __eq__; its
    # __dict__ (Counters + ints) compares by value.
    return {
        "answers": per_tick,
        "msgs": dict(sim.channel.stats.snapshot().__dict__),
        "driver": driver,
    }


def _assert_equivalent(tick_run, event_run) -> None:
    assert len(tick_run["answers"]) == len(event_run["answers"])
    for t, (a, b) in enumerate(
        zip(tick_run["answers"], event_run["answers"])
    ):
        assert a == b, f"answers diverged at tick {t + 1}"
    assert tick_run["msgs"] == event_run["msgs"]


class TestEngineConfigValidation:
    def test_modes_tuple(self):
        assert ENGINE_MODES == ("tick", "event")

    def test_default_mode_is_event(self):
        assert EngineConfig().mode == "event"

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigError, match="unknown engine mode"):
            EngineConfig(mode="turbo")

    def test_replay_must_be_replay_config(self):
        with pytest.raises(ConfigError, match="ReplayConfig"):
            EngineConfig(replay={"snapshot_every": 2})

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(Exception):
            cfg.mode = "tick"

    def test_describe_round_trips_fields(self):
        cfg = EngineConfig(mode="tick", replay=ReplayConfig(snapshot_every=3))
        doc = cfg.describe()
        assert doc["mode"] == "tick"
        assert doc["replay"]["snapshot_every"] == 3
        assert EngineConfig().describe()["replay"] is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snapshot_every": 0},
            {"snapshot_every": True},
            {"frames_per_tick": 0},
            {"max_objects": 0},
            {"tick_seconds": -1.0},
            {"tick_seconds": "fast"},
        ],
    )
    def test_replay_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ReplayConfig(**kwargs)

    def test_run_config_rejects_non_engine(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            RunConfig("DKNN-P", engine="event")


class TestEquivalence:
    """Event mode == tick mode, answer for answer, tick for tick."""

    @pytest.mark.parametrize(
        "algorithm", ["DKNN-P", "DKNN-B", "DKNN-G", "PER", "SEA", "CPM"]
    )
    def test_per_tick_answers_match(self, algorithm):
        tick_run = _run(RunConfig(algorithm))
        event_run = _run(
            RunConfig(algorithm, engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)

    def test_tick_mode_is_the_null_engine(self):
        bare = _run(RunConfig("DKNN-P"))
        tick = _run(RunConfig("DKNN-P", engine=EngineConfig(mode="tick")))
        _assert_equivalent(bare, tick)
        assert tick["driver"].skipped_ticks == 0

    def test_fast_path_event_mode(self):
        tick_run = _run(RunConfig("DKNN-P"), reference=False)
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")),
            reference=False,
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].skipped_ticks > 0

    def test_under_fault_plan(self):
        plan = FaultPlan(
            seed=5, drop_uplink=0.05, drop_downlink=0.05, delay_prob=0.05
        )
        tick_run = _run(RunConfig("DKNN-P", faults=plan))
        event_run = _run(
            RunConfig("DKNN-P", faults=plan, engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)

    def test_under_sharded_tier(self):
        shard = ShardConfig(shards=2)
        tick_run = _run(RunConfig("DKNN-P", shard=shard))
        event_run = _run(
            RunConfig("DKNN-P", shard=shard, engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].skipped_ticks > 0

    def test_with_one_tick_latency(self):
        tick_run = _run(RunConfig("DKNN-P", latency="one_tick"))
        event_run = _run(
            RunConfig("DKNN-P", latency="one_tick", engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)


class TestSkipping:
    def test_event_mode_actually_skips(self):
        run = _run(RunConfig("DKNN-P", engine=EngineConfig(mode="event")))
        d = run["driver"]
        assert d.skipped_ticks > 0
        assert d.skipped_ticks + d.full_ticks == TICKS
        assert d.fired > 0 and d.scheduled >= d.fired

    def test_record_history_forces_full_ticks(self):
        run = _run(
            RunConfig(
                "DKNN-P",
                record_history=True,
                engine=EngineConfig(mode="event"),
            )
        )
        assert run["driver"].skipped_ticks == 0

    def test_stats_document(self):
        run = _run(RunConfig("DKNN-P", engine=EngineConfig(mode="event")))
        doc = run["driver"].stats()
        for key in (
            "mode",
            "skipping",
            "scheduled",
            "fired",
            "cancelled",
            "skipped_ticks",
            "full_ticks",
            "pending",
        ):
            assert key in doc, f"stats() missing {key}"
        assert doc["mode"] == "event"


class TestAttach:
    def _sim(self):
        fleet, queries = build_workload(SPEC)
        return build_system(RunConfig("DKNN-P"), fleet, queries)

    def test_attach_returns_sim_and_installs_driver(self):
        sim = self._sim()
        out = engine_attach(sim, EngineConfig(mode="event"))
        assert out is sim
        assert isinstance(sim._driver, EventDriver)

    def test_double_attach_raises(self):
        sim = self._sim()
        engine_attach(sim, EngineConfig(mode="event"))
        with pytest.raises(ConfigError, match="already has an engine"):
            engine_attach(sim, EngineConfig(mode="event"))

    def test_attach_after_tick_zero_raises(self):
        sim = self._sim()
        sim.run(1)
        with pytest.raises(ConfigError, match="before the first tick"):
            engine_attach(sim, EngineConfig(mode="event"))

    def test_attach_rejects_non_config(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            engine_attach(self._sim(), "event")
