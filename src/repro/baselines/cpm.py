"""CPM: conceptual-partitioning-style incremental monitoring.

Modeled on CPM [Mouratidis, Papadias, Hadjieleftheriou — SIGMOD'05]:
the same answer-region dirty tracking as SEA, but a dirty query is
repaired with a *bounded* re-search instead of a from-scratch best-first
search. The bound exploits what the server already knows:

* every old answer member's new distance to the new query position is
  computable in ``k`` distance operations;
* the true new kNN all lie within ``r = max`` of those distances
  (the old answer supplies ``k`` objects within ``r``, so nothing
  farther can be in the answer);

so one range search of radius ``r`` plus a top-k selection is exact.
This mirrors CPM's property of touching only the cells the update
actually invalidated, rather than re-walking the search space.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.common import AnswerRegionServer, build_centralized_system
from repro.geometry import Rect
from repro.index.knn import knn_search, range_search
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["CpmServer", "build_cpm_system"]


class CpmServer(AnswerRegionServer):
    """Answer-region dirty tracking + bounded incremental repair."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        record_history: bool = False,
    ) -> None:
        super().__init__(universe, grid_cells, record_history=record_history)
        #: qid -> current answer as ascending (distance, oid).
        self._answer: Dict[int, List[Tuple[float, int]]] = {}

    def _repair(self, spec: QuerySpec) -> None:
        focal = self.focal_position(spec)
        if focal is None:
            return  # focal report lost so far; stale answer stands
        qx, qy = focal
        exclude = frozenset((spec.focal_oid,))
        previous = self._answer.get(spec.qid)
        if previous is not None and len(previous) >= spec.k:
            # Bounded repair: the old answer members bound the new d_k.
            bound = 0.0
            usable = True
            for _, oid in previous:
                if oid not in self.grid:
                    usable = False  # member de-registered: fall back
                    break
                ox, oy = self.grid.position_of(oid)
                ddx = ox - qx
                ddy = oy - qy
                d = math.sqrt(ddx * ddx + ddy * ddy)
                self.meter.charge(CostMeter.DIST_CALC)
                if d > bound:
                    bound = d
            if usable:
                # Inflate the bound by a few ulps: range_search compares
                # squared distances, which can round the farthest old
                # member just outside an exact hypot-derived radius.
                bound += 1e-9 * (bound + 1.0)
                cands = range_search(
                    self.grid, qx, qy, bound, exclude=exclude, meter=self.meter
                )
                result = cands[: spec.k]
            else:
                result = knn_search(
                    self.grid, qx, qy, spec.k, exclude=exclude, meter=self.meter
                )
        else:
            result = knn_search(
                self.grid, qx, qy, spec.k, exclude=exclude, meter=self.meter
            )
        self._answer[spec.qid] = list(result)
        self._install(spec, qx, qy, result)


def build_cpm_system(
    fleet,
    specs: Sequence[QuerySpec],
    grid_cells: int = 32,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run CPM system.

    A :class:`~repro.mobility.FastFleet` routes the per-tick report
    stream through the columnar message plane: one ``TICK_REPORT``
    batch per tick (:class:`~repro.baselines.common.ReporterPhase`), a
    dense grid ingest, and vectorized dirty detection — bit-identical
    answers and accounting, a fraction of the interpreter work.
    """
    server = CpmServer(fleet.universe, grid_cells, record_history=record_history)
    return build_centralized_system(
        server, fleet, specs, latency, faults, telemetry
    )
