"""Distributed processing of moving k-nearest-neighbor queries on
moving objects — an ICDE 2007 reproduction.

A population of mobile objects and a set of continuous kNN queries
anchored at moving focal objects are simulated over a synchronous-round
network. The core contribution (``repro.core``) monitors each query
with distributed safe regions — objects stay silent while their own
band predicate holds — in two variants: point-to-point with a
dead-reckoning position table (DKNN-P) and broadcast/collect-based
(DKNN-B). Three centralized streaming baselines (PER, SEA, CPM) share
one communication pattern and differ in server evaluation cost.

Quickstart::

    from repro import (
        Rect, FastFleet, RandomWaypointModel, QuerySpec,
        build_broadcast_system,
    )

    universe = Rect(0, 0, 10_000, 10_000)
    fleet = FastFleet.from_model(RandomWaypointModel(universe), 500, seed=7)
    queries = [QuerySpec(qid=0, focal_oid=0, k=8)]
    sim = build_broadcast_system(fleet, queries)
    sim.run(100)
    print(sim.server.answers[0])        # current 8 nearest object ids
    print(sim.channel.stats)            # message/byte accounting

A scalar :class:`Fleet` gets the bit-identical reference build instead.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced evaluation.
"""

from repro.baselines import (
    CpmServer,
    PeriodicServer,
    SeaCnnServer,
    build_cpm_system,
    build_periodic_system,
    build_seacnn_system,
)
from repro.core import (
    BroadcastParams,
    DknnParams,
    DknnServer,
    build_dknn_system,
    plan_installation,
)
from repro.core.broadcast_variant import (
    DknnBroadcastServer,
    build_broadcast_system,
)
from repro.core.geocast_variant import (
    DknnGeocastServer,
    GeocastParams,
    build_geocast_system,
)
from repro.core.range_monitor import (
    RangeBroadcastServer,
    RangeQuerySpec,
    build_range_system,
)
from repro.errors import ReproError
from repro.experiments import (
    ALGORITHMS,
    EXPERIMENTS,
    Measurement,
    ResultTable,
    RunConfig,
    build_system,
    run_experiment,
    run_once,
)
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    use_telemetry,
)
from repro.geometry import Circle, Point, Rect
from repro.index import UniformGrid, brute_knn, knn_search, range_search
from repro.metrics import AccuracyTracker, CostMeter, is_valid_knn
from repro.mobility import (
    FastFleet,
    Fleet,
    GaussianClusterModel,
    RandomDirectionModel,
    RandomWaypointModel,
    RoadNetworkModel,
    Trace,
    record_trace,
)
from repro.net import CommStats, RoundSimulator
from repro.server import QuerySpec
from repro.workloads import WorkloadSpec, build_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # geometry
    "Point",
    "Rect",
    "Circle",
    # mobility
    "FastFleet",
    "Fleet",
    "RandomWaypointModel",
    "RandomDirectionModel",
    "GaussianClusterModel",
    "RoadNetworkModel",
    "Trace",
    "record_trace",
    # index
    "UniformGrid",
    "knn_search",
    "range_search",
    "brute_knn",
    # net
    "RoundSimulator",
    "CommStats",
    # queries
    "QuerySpec",
    # core protocol
    "DknnParams",
    "BroadcastParams",
    "DknnServer",
    "DknnBroadcastServer",
    "DknnGeocastServer",
    "GeocastParams",
    "build_dknn_system",
    "build_broadcast_system",
    "build_geocast_system",
    "RangeQuerySpec",
    "RangeBroadcastServer",
    "build_range_system",
    "plan_installation",
    # baselines
    "PeriodicServer",
    "SeaCnnServer",
    "CpmServer",
    "build_periodic_system",
    "build_seacnn_system",
    "build_cpm_system",
    # metrics
    "CostMeter",
    "AccuracyTracker",
    "is_valid_knn",
    # workloads & experiments
    "WorkloadSpec",
    "build_workload",
    "ALGORITHMS",
    "RunConfig",
    "build_system",
    "run_once",
    "Measurement",
    "ResultTable",
    "EXPERIMENTS",
    "run_experiment",
    # observability
    "Telemetry",
    "Tracer",
    "MetricsRegistry",
    "use_telemetry",
]
