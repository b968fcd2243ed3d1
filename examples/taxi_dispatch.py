"""Taxi dispatch: a rider continuously tracks their 5 nearest taxis.

The scenario the paper's introduction motivates: a mobile user (the
rider, walking) wants an always-fresh list of the nearest taxis, while
both the taxis and the rider move. We run the distributed broadcast
protocol, log every change to the rider's list as a dispatch event, and
compare the communication bill against centralized streaming.

Run:  python examples/taxi_dispatch.py
"""

import random

from repro.api import (
    FastFleet,
    GaussianClusterModel,
    QuerySpec,
    RandomWaypointModel,
    Rect,
    build_broadcast_system,
    build_periodic_system,
)

CITY = Rect(0, 0, 8_000, 8_000)
N_TAXIS = 300
K = 5
TICKS = 120


def build_world(seed: int) -> FastFleet:
    """Taxis cluster around hotspots (downtown, airport, ...); the
    rider walks at pedestrian speed."""
    taxis = GaussianClusterModel(
        CITY, n_hotspots=6, sigma=600, speed_min=30, speed_max=60, seed=seed
    )
    rider = RandomWaypointModel(CITY, speed_min=5, speed_max=12)
    rng = random.Random(seed)
    return FastFleet.from_model(
        taxis, N_TAXIS, seed=seed, extra_movers=[rider.make_mover(rng)]
    )


def main() -> None:
    fleet = build_world(seed=11)
    rider_id = N_TAXIS  # the extra mover appended after the taxis
    query = QuerySpec(qid=0, focal_oid=rider_id, k=K)
    sim = build_broadcast_system(fleet, [query])

    print(f"rider {rider_id} tracking their {K} nearest of {N_TAXIS} taxis")
    print("-" * 60)
    last = None
    events = 0

    def watch(s) -> None:
        nonlocal last, events
        current = sorted(s.server.answers[query.qid])
        if current != last:
            events += 1
            x, y = fleet.position_of(rider_id)
            joined = ", ".join(f"taxi#{t}" for t in current)
            print(f"t={s.tick:3d}  rider@({x:5.0f},{y:5.0f})  -> {joined}")
            last = current

    sim.run(TICKS, on_tick=watch)

    distributed = sim.channel.stats
    # Same world, centralized streaming, for the bill comparison.
    central = build_periodic_system(build_world(seed=11), [query])
    central.run(TICKS)

    print("-" * 60)
    print(f"{events} dispatch-list changes over {TICKS} ticks")
    print(
        f"distributed : {distributed.total_messages:6d} messages "
        f"({distributed.total_bytes} bytes)"
    )
    print(
        f"centralized : {central.channel.stats.total_messages:6d} messages "
        f"({central.channel.stats.total_bytes} bytes)"
    )
    factor = central.channel.stats.total_messages / max(
        distributed.total_messages, 1
    )
    print(f"communication saved: {factor:.1f}x")


if __name__ == "__main__":
    main()
