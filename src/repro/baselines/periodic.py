"""PER: the naive periodic baseline (YPK-CNN's strawman).

Every tick, every query is re-evaluated from scratch by scanning the
full object population — the approach continuous-query papers compare
against. Server cost is O(N * Q) distance computations per tick; the
communication is the shared per-tick stream.

A ``period`` parameter re-evaluates only every ``period`` ticks (the
classic sampling knob): between evaluations, the published answer is
whatever the last evaluation produced, so accuracy degrades with the
period — the trade-off experiment E8 measures.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import (
    CentralizedServerBase,
    build_centralized_system,
)
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.index.bruteforce import _top_k
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["PeriodicServer", "build_periodic_system"]


class PeriodicServer(CentralizedServerBase):
    """Full re-scan of all objects for every query, every ``period`` ticks."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        period: int = 1,
        record_history: bool = False,
    ) -> None:
        super().__init__(universe, grid_cells, record_history=record_history)
        if period < 1:
            raise ProtocolError(f"period must be >= 1, got {period}")
        self.period = period

    def _process(self, tick, updates) -> None:
        if (tick - 1) % self.period != 0:
            return
        for spec in self.queries:
            focal = self.focal_position(spec)
            if focal is None:
                continue  # focal report lost so far; stale answer stands
            qx, qy = focal
            # Naive scan: distance to every object, keep the k best.
            best: List[Tuple[float, int]] = []
            for oid in self.grid.ids():
                if oid == spec.focal_oid:
                    continue
                ox, oy = self.grid.position_of(oid)
                ddx = ox - qx
                ddy = oy - qy
                d = math.sqrt(ddx * ddx + ddy * ddy)
                self.meter.charge(CostMeter.DIST_CALC)
                if len(best) < spec.k:
                    heapq.heappush(best, (-d, -oid))
                elif (d, oid) < (-best[0][0], -best[0][1]):
                    heapq.heapreplace(best, (-d, -oid))
            answer = sorted((-nd, -noid) for nd, noid in best)
            self.publish_and_push(spec, [oid for _, oid in answer])

    def _process_entries(self, tick, entries) -> None:
        """The same full scan as one numpy top-k per query.

        A function of the dense grid alone — the update log is never
        read — so it serves batched and plane-vetoed ticks alike. Per
        query: the shared ``sqrt(dx*dx + dy*dy)`` distances to every
        live object but the focal, one DIST_CALC per eligible object
        charged in bulk, and the oracle's ``(distance, oid)`` top-k.
        """
        if (tick - 1) % self.period != 0:
            return
        grid = self.grid
        live = np.flatnonzero(grid._dcell >= 0)
        xs = grid._dx[live]
        ys = grid._dy[live]
        for spec in self.queries:
            focal = self.focal_position(spec)
            if focal is None:
                continue  # focal report lost so far; stale answer stands
            qx, qy = focal
            dx = xs - qx
            dy = ys - qy
            keep = live != spec.focal_oid
            d = np.sqrt(dx * dx + dy * dy)[keep]
            if d.shape[0]:
                self.meter.charge(CostMeter.DIST_CALC, d.shape[0])
            answer = _top_k(d, live[keep], spec.k)
            self.publish_and_push(spec, [oid for _, oid in answer])


def build_periodic_system(
    fleet,
    specs: Sequence[QuerySpec],
    grid_cells: int = 32,
    period: int = 1,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run PER system.

    A :class:`~repro.mobility.FastFleet` ships the per-tick report
    stream as one columnar ``TICK_REPORT`` batch with a dense grid
    ingest and runs the O(N·Q) scan as one numpy top-k per query over
    the dense grid — the same answers, messages and DIST_CALC units as
    the scalar scan.
    """
    server = PeriodicServer(
        fleet.universe, grid_cells, period=period, record_history=record_history
    )
    return build_centralized_system(
        server, fleet, specs, latency, faults, telemetry
    )
