"""Road patrol: supervisors on a street grid track nearest patrol cars.

Everything moves on a jittered grid of streets (the road-network
substitution for paper-era Brinkhoff traces): 200 patrol cars and 4
moving supervisors, each supervisor holding a continuous 4-NN query.
Uses the point-to-point protocol (DKNN-P) with a dead-reckoning
position table, and prints the server's view of the cost breakdown.

Run:  python examples/road_network_patrol.py
"""

from repro.api import (
    DknnParams,
    FastFleet,
    QuerySpec,
    Rect,
    RoadNetworkModel,
    build_dknn_system,
    is_valid_knn,
)

AREA = Rect(0, 0, 6_000, 6_000)
N_CARS = 200
N_SUPERVISORS = 4
TICKS = 100


def main() -> None:
    model = RoadNetworkModel(
        AREA, rows=10, cols=10, jitter=0.15, speed_min=30, speed_max=60, seed=5
    )
    # Supervisors drive the same streets: just more movers of the model.
    fleet = FastFleet.from_model(model, N_CARS + N_SUPERVISORS, seed=21)
    queries = [
        QuerySpec(qid=i, focal_oid=N_CARS + i, k=4)
        for i in range(N_SUPERVISORS)
    ]
    params = DknnParams(theta=150.0, s_cap=60.0, grid_cells=24)
    sim = build_dknn_system(fleet, queries, params)

    checked = valid = 0

    def audit(s) -> None:
        nonlocal checked, valid
        if s.tick % 10 != 0:
            return
        for q in queries:
            qx, qy = fleet.position_of(q.focal_oid)
            checked += 1
            if is_valid_knn(
                fleet.positions, qx, qy, q.k,
                s.server.answers[q.qid], {q.focal_oid},
            ):
                valid += 1

    sim.run(TICKS, on_tick=audit)

    print(f"{N_SUPERVISORS} supervisors x {TICKS} ticks on a 10x10 street grid")
    for q in queries:
        cars = ", ".join(f"car#{c}" for c in sorted(sim.server.answers[q.qid]))
        print(f"  supervisor {q.focal_oid}: {cars}")
    print(f"audited answers: {valid}/{checked} valid")
    print()
    print("message breakdown (per tick):")
    for kind, row in sorted(sim.channel.stats.per_kind_table().items()):
        print(f"  {kind:18s} {row['messages'] / TICKS:8.1f}")
    print("server cost units:", dict(sim.server.meter.units))
    print(f"repairs: {sim.server.repair_count}")


if __name__ == "__main__":
    main()
