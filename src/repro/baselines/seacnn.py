"""SEA: shared-execution incremental monitoring (SEA-CNN-style).

Like SEA-CNN [Xiong, Mokbel, Aref — ICDE'05], the server maintains each
query's *answer region* (the circle around the query point with radius
``d_k``) and a cell-to-queries index over it. Each tick, only queries
that are actually *affected* — their focal object moved, or some moved
object's old or new position falls in a cell of their answer region —
are re-evaluated, with a fresh grid best-first kNN search. Unaffected
queries are skipped entirely, which is where the shared-execution
savings come from (static or slow queries in quiet neighborhoods cost
nothing).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.common import AnswerRegionServer, build_centralized_system
from repro.index.knn import knn_search
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["SeaCnnServer", "build_seacnn_system"]


class SeaCnnServer(AnswerRegionServer):
    """Answer-region dirty tracking + full re-search of dirty queries."""

    def _repair(self, spec: QuerySpec) -> None:
        focal = self.focal_position(spec)
        if focal is None:
            return  # focal report lost so far; stale answer stands
        qx, qy = focal
        result = knn_search(
            self.grid,
            qx,
            qy,
            spec.k,
            exclude=frozenset((spec.focal_oid,)),
            meter=self.meter,
        )
        self._install(spec, qx, qy, result)


def build_seacnn_system(
    fleet,
    specs: Sequence[QuerySpec],
    grid_cells: int = 32,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run SEA system.

    A :class:`~repro.mobility.FastFleet` ships the per-tick report
    stream as one columnar ``TICK_REPORT`` batch with a dense grid
    ingest and runs the vectorized dirty detection shared with CPM
    (:class:`~repro.baselines.common.AnswerRegionServer`); the dirty
    queries' re-searches are the same grid kNN either way, so answers
    and accounting are bit-identical.
    """
    server = SeaCnnServer(
        fleet.universe, grid_cells, record_history=record_history
    )
    return build_centralized_system(
        server, fleet, specs, latency, faults, telemetry
    )
