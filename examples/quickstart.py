"""Quickstart: monitor one moving kNN query over a moving fleet.

Builds a 500-object random-waypoint world, registers a single k=8
continuous query anchored at object 0, runs the broadcast protocol for
100 ticks, and shows the answer, its exactness against brute force, and
what the monitoring cost in messages.

Run:  python examples/quickstart.py
"""

from repro.api import (
    FastFleet,
    QuerySpec,
    RandomWaypointModel,
    Rect,
    brute_knn,
    build_broadcast_system,
    is_valid_knn,
    render_query,
)


def main() -> None:
    universe = Rect(0, 0, 10_000, 10_000)
    fleet = FastFleet.from_model(
        RandomWaypointModel(universe, speed_min=25, speed_max=50),
        500,
        seed=7,
    )
    query = QuerySpec(qid=0, focal_oid=0, k=8)

    sim = build_broadcast_system(fleet, [query])
    sim.run(100)

    qx, qy = fleet.position_of(query.focal_oid)
    answer = sim.server.answers[query.qid]
    truth = brute_knn(fleet.positions, qx, qy, query.k, {query.focal_oid})

    print(f"after {sim.tick} ticks, query focal is at ({qx:.0f}, {qy:.0f})")
    print(f"protocol answer : {sorted(answer)}")
    print(f"brute force     : {sorted(oid for _, oid in truth)}")
    valid = is_valid_knn(
        fleet.positions, qx, qy, query.k, answer, {query.focal_oid}
    )
    print(f"answer valid    : {valid}")

    stats = sim.channel.stats
    print()
    print(f"total messages  : {stats.total_messages}")
    print(f"  uplink        : {stats.uplink_messages}")
    print(f"  broadcasts    : {stats.broadcast_messages}")
    print(f"total bytes     : {stats.total_bytes}")
    print(
        "a centralized stream would have cost "
        f"{fleet.n * sim.tick} uplink messages over the same window"
    )

    state = sim.server._states[query.qid]
    print()
    print("world snapshot (Q = query, * = answer, o = threshold band):")
    print(
        render_query(
            universe,
            fleet.positions,
            focal_oid=query.focal_oid,
            answer_ids=answer,
            threshold=state.threshold,
            anchor=state.anchor,
        )
    )


if __name__ == "__main__":
    main()
