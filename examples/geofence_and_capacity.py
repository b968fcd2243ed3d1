"""Geofencing and capacity planning with the extension modules.

Part 1 — a moving geofence: a supervisor van continuously knows every
courier within 1.2 km, via the distributed range monitor (gray-zone
streaming); we verify it against brute force as it runs.

Part 2 — capacity planning: the analytical models predict how many
concurrent kNN queries this deployment could host before centralized
streaming would have been the cheaper architecture, and the prediction
is sanity-checked against a measured run.

Run:  python examples/geofence_and_capacity.py
"""

from repro.api import (
    FastFleet,
    RandomWaypointModel,
    RangeQuerySpec,
    Rect,
    RunConfig,
    WorkloadSpec,
    brute_range,
    build_range_system,
    crossover_queries,
    expected_knn_distance,
    expected_rank_gap,
    object_density,
    run_once,
)

CITY = Rect(0, 0, 10_000, 10_000)
COURIERS = 400
FENCE = 1_200.0


def geofence_demo() -> None:
    print("== part 1: moving geofence over couriers ==")
    fleet = FastFleet.from_model(
        RandomWaypointModel(CITY, 20, 45), COURIERS + 1, seed=33
    )
    van = COURIERS
    fence = RangeQuerySpec(qid=0, focal_oid=van, radius=FENCE)
    sim = build_range_system(fleet, [fence], s_margin=60.0)

    mismatches = 0

    def audit(s) -> None:
        nonlocal mismatches
        if s.tick % 5 != 0:
            return
        vx, vy = fleet.position_of(van)
        truth = {
            o for _, o in brute_range(fleet.positions, vx, vy, FENCE, {van})
        }
        if set(s.server.answers[0]) != truth:
            mismatches += 1

    sim.run(100, on_tick=audit)
    inside = sorted(sim.server.answers[0])
    print(f"couriers inside the fence now : {len(inside)}")
    print(f"audits with any mismatch      : {mismatches}")
    stats = sim.channel.stats
    print(
        f"traffic: {stats.total_messages} msgs over 100 ticks "
        f"(vs {COURIERS * 100} for centralized streaming)"
    )
    print()


def capacity_demo() -> None:
    print("== part 2: capacity planning from the cost models ==")
    spec = WorkloadSpec(
        n_objects=COURIERS, n_queries=8, k=8, ticks=60, warmup_ticks=10,
        seed=33,
    )
    rho = object_density(spec.population, spec.universe_size)
    d_k = expected_knn_distance(spec.k, rho)
    gap = expected_rank_gap(spec.k, rho)
    q_star = crossover_queries(
        spec.population, spec.k, rho, spec.query_speed,
        (spec.speed_min + spec.speed_max) / 2,
    )
    print(f"predicted kNN radius    : {d_k:7.1f}")
    print(f"predicted k/k+1 gap     : {gap:7.1f}  (the safe-margin budget)")
    print(f"predicted crossover Q*  : {q_star:7.1f} concurrent queries")

    measured_d = run_once(RunConfig("DKNN-B"), spec, accuracy_every=10)
    measured_c = run_once(RunConfig("PER"), spec, accuracy_every=0)
    print(
        f"measured at Q={spec.n_queries}: distributed "
        f"{measured_d.msgs_per_tick:.0f} msgs/tick vs centralized "
        f"{measured_c.msgs_per_tick:.0f} msgs/tick "
        f"(exactness {measured_d.exactness:.3f})"
    )
    winner = "distributed" if (
        measured_d.msgs_per_tick < measured_c.msgs_per_tick
    ) else "centralized"
    side = "below" if spec.n_queries < q_star else "above"
    print(f"Q={spec.n_queries} sits {side} Q*; the cheaper system is: {winner}")


if __name__ == "__main__":
    geofence_demo()
    capacity_demo()
