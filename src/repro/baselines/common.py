"""Shared machinery of the centralized baselines.

All three baselines (PER / SEA / CPM) use the same *communication*
pattern — every object streams its exact position to the server every
tick — and differ only in server-side evaluation cost. This module
provides the per-tick reporter node, the server base that ingests the
stream, keeps an exact grid, tracks per-tick movements, and pushes
answers to focal nodes (subclasses implement ``_process`` and
``_process_entries``), the answer-region dirty tracking SEA and CPM
share (they differ only in ``_repair``), and the one system builder
all three use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.protocol import AnswerPush, LocationUpdate
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.index.grid import UniformGrid
from repro.metrics.cost import CostMeter
from repro.mobility.soa import is_vectorized
from repro.net.faults import FaultPlan
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.node import MobileNode
from repro.net.plane import ColumnarBatch, columnar_ok
from repro.net.simulator import ClientPhase, RoundSimulator
from repro.server.engine import BaseServer
from repro.server.query_table import QuerySpec

__all__ = [
    "ReporterNode",
    "ReporterPhase",
    "CentralizedServerBase",
    "AnswerRegionServer",
    "BatchUpdates",
    "build_centralized_system",
]


class ReporterNode(MobileNode):
    """Streams this object's exact position to the server every tick."""

    def __init__(self, oid: int, fleet) -> None:
        super().__init__(oid, fleet)
        self.known_answers: Dict[int, List[int]] = {}

    def on_tick_start(self, tick: int) -> None:
        x, y = self.position
        self.send_server(MessageKind.TICK_REPORT, LocationUpdate(x, y))

    def on_message(self, msg: Message) -> None:
        if msg.kind == MessageKind.ANSWER_PUSH:
            payload = msg.payload
            self.known_answers[payload.qid] = list(payload.ids)
        else:
            raise ProtocolError(
                f"reporter node {self.oid} cannot handle {msg.kind}"
            )


class ReporterPhase(ClientPhase):
    """Batched tick-start for the centralized baselines.

    Every reporter transmits every tick, so there is no silence
    predicate to evaluate — the whole phase is one columnar
    ``TICK_REPORT`` batch carrying the fleet's coordinates (copied at
    send time, so one-tick-latency delivery sees the positions of the
    sending tick). When the plane is vetoed (faults, tracing, a scalar
    channel) the phase falls back to the exact per-node loop the
    simulator would have run.
    """

    def bind(self, sim) -> None:
        super().bind(sim)
        import numpy as np

        for node in sim.mobiles:
            if not isinstance(node, ReporterNode):
                raise ProtocolError(
                    f"ReporterPhase cannot drive {type(node).__name__}"
                )
        from repro.core.fastpath import _base_tick_end

        self.skip_tick_end = _base_tick_end(sim.mobiles)
        self._oids = np.array(
            [node.oid for node in sim.mobiles], dtype=np.int64
        )

    def tick_start(self, tick: int) -> None:
        from repro.core.fastpath import _LU_NBYTES, _MIN_BATCH, _fleet_xy

        sim = self.sim
        batched = columnar_ok(sim.server, sim.channel, sim.telemetry)
        if batched and self._oids.shape[0] >= _MIN_BATCH:
            xs, ys = _fleet_xy(sim.fleet)
            idx = self._oids
            sim.channel.send_batch(
                ColumnarBatch(
                    MessageKind.TICK_REPORT,
                    srcs=idx,
                    dst=SERVER_ID,
                    xs=xs[idx],  # fancy indexing copies: latency-safe
                    ys=ys[idx],
                    payload_nbytes=_LU_NBYTES,
                    payload_ctor=LocationUpdate,
                )
            )
            return
        is_down = sim._is_down if sim.faults is not None else None
        for node in sim.mobiles:
            if is_down is not None and is_down(node.node_id):
                continue
            node.on_tick_start(tick)


class BatchUpdates:
    """One ingested ``TICK_REPORT`` batch, pre-update state captured.

    Sits in the server's update log alongside scalar
    ``(oid, old, new)`` tuples, preserving arrival order.
    ``old_x``/``old_y`` are only meaningful where ``known``;
    ``old_cell``/``new_cell`` are the grid's linear cell ids from
    :meth:`UniformGrid.update_batch` (``old_cell == -1`` for new
    objects), which is what lets CPM's dirty detection skip re-deriving
    cells from coordinates.
    """

    __slots__ = (
        "oids", "known", "old_x", "old_y", "new_x", "new_y",
        "old_cell", "new_cell",
    )

    def __init__(
        self, oids, known, old_x, old_y, new_x, new_y, old_cell, new_cell
    ) -> None:
        self.oids = oids
        self.known = known
        self.old_x = old_x
        self.old_y = old_y
        self.new_x = new_x
        self.new_y = new_y
        self.old_cell = old_cell
        self.new_cell = new_cell


class CentralizedServerBase(BaseServer):
    """Ingests the per-tick position stream; subclasses evaluate queries."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        record_history: bool = False,
    ) -> None:
        super().__init__(record_history=record_history)
        self.universe = universe
        self.grid = UniformGrid(universe, grid_cells, meter=self.meter)
        #: (oid, old position or None, new position) received this tick.
        self._updates: List[
            Tuple[int, Optional[Tuple[float, float]], Tuple[float, float]]
        ] = []
        self._processed_tick = -1
        self._tick = 0

    # -- stream ingestion ---------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if msg.kind != MessageKind.TICK_REPORT:
            raise ProtocolError(f"centralized server cannot handle {msg.kind}")
        payload = msg.payload
        oid = msg.src
        old: Optional[Tuple[float, float]]
        if oid in self.grid:
            old = self.grid.position_of(oid)
            self.grid.update(oid, payload.x, payload.y)
        else:
            old = None
            self.grid.insert(oid, payload.x, payload.y)
        self._updates.append((oid, old, (payload.x, payload.y)))

    def on_uplink_batch(self, batch: ColumnarBatch) -> bool:
        """Ingest one columnar ``TICK_REPORT`` batch (dense grid only).

        Vectorized twin of :meth:`on_message`: capture pre-update
        positions, one ``update_batch`` into the grid (same total
        INDEX_UPDATE charges), and log a :class:`BatchUpdates` record
        in arrival order for ``_process`` / ``_process_entries``.
        """
        if batch.kind is not MessageKind.TICK_REPORT or not self.grid._dense:
            return False
        import numpy as np

        grid = self.grid
        oids = batch.srcs
        grid._ensure_dense(int(oids.max()))
        known = grid._dcell[oids] >= 0
        old_x = grid._dx[oids]  # fancy indexing copies pre-update state
        old_y = grid._dy[oids]
        old_cell, new_cell = grid.update_batch(oids, batch.xs, batch.ys)
        self._updates.append(
            BatchUpdates(
                oids, known, old_x, old_y, batch.xs, batch.ys,
                old_cell, new_cell,
            )
        )
        return True

    # -- per-tick evaluation -------------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._tick = tick

    def on_subround(self, tick: int) -> None:
        # All reports of a tick arrive in the first delivery batch;
        # evaluate once, then ignore the subrounds delivering pushes.
        if self._processed_tick == tick:
            return
        self._processed_tick = tick
        entries = self._updates
        self._updates = []
        if self.grid._dense:
            self._process_entries(tick, entries)
        else:
            self._process(tick, entries)

    def _process_entries(self, tick: int, entries: List) -> None:
        """Evaluate the tick over the dense grid (vectorized builds).

        ``entries`` holds scalar ``(oid, old, new)`` tuples (plane
        vetoed) and :class:`BatchUpdates` records in arrival order;
        the result must be bit-identical to :meth:`_process` over the
        same updates as tuples.
        """
        raise NotImplementedError

    def _process(
        self,
        tick: int,
        updates: List[
            Tuple[int, Optional[Tuple[float, float]], Tuple[float, float]]
        ],
    ) -> None:
        """Evaluate all queries for this tick: the scalar reference."""
        raise NotImplementedError

    # -- answer delivery --------------------------------------------------------

    def publish_and_push(self, spec: QuerySpec, answer_ids: List[int]) -> None:
        """Publish and, on membership change, push to the focal node."""
        if set(self.answers.get(spec.qid, ())) != set(answer_ids):
            self.send(
                spec.focal_oid,
                MessageKind.ANSWER_PUSH,
                AnswerPush(spec.qid, tuple(answer_ids)),
            )
        self.publish(spec.qid, answer_ids)

    def focal_position(self, spec: QuerySpec) -> Optional[Tuple[float, float]]:
        """Last reported focal position, or None if never heard from.

        A None is only possible on a lossy network (reports stream
        every tick, so the first one normally lands at tick 1); the
        caller skips the query for the tick and the stale answer
        stands.
        """
        if spec.focal_oid not in self.grid:
            return None
        return self.grid.position_of(spec.focal_oid)


class AnswerRegionServer(CentralizedServerBase):
    """Answer-region dirty tracking shared by SEA and CPM.

    Each query's *answer region* is the circle of radius ``d_k`` around
    its focal point; a cell-to-queries index over it tells, per moved
    object, which queries its old or new cell could affect. Each tick
    only *dirty* queries — never evaluated, focal moved, or a moved
    object touched their region — are handed to :meth:`_repair`, in
    ascending qid order so the repair (and answer-push) order is a
    function of the dirty *set*, not of how the update log built it.
    """

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        record_history: bool = False,
    ) -> None:
        super().__init__(universe, grid_cells, record_history=record_history)
        #: qid -> cells currently covered by the query's answer region.
        self._region_cells: Dict[int, Set[Tuple[int, int]]] = {}
        #: cell -> qids whose answer region covers it.
        self._cell_map: Dict[Tuple[int, int], Set[int]] = {}

    def _set_region(self, qid: int, qx: float, qy: float, d_k: float) -> None:
        new_cells = set(self.grid.cells_intersecting_circle(qx, qy, d_k))
        old_cells = self._region_cells.get(qid, set())
        for cell in old_cells - new_cells:
            members = self._cell_map[cell]
            members.discard(qid)
            if not members:
                del self._cell_map[cell]
        for cell in new_cells - old_cells:
            self._cell_map.setdefault(cell, set()).add(qid)
        self._region_cells[qid] = new_cells
        self.meter.charge(CostMeter.BOOKKEEPING, len(new_cells ^ old_cells))

    def _install(
        self,
        spec: QuerySpec,
        qx: float,
        qy: float,
        result: List[Tuple[float, int]],
    ) -> None:
        """Re-index the answer region of a fresh result and publish it."""
        d_k = result[-1][0] if result else 0.0
        self._set_region(spec.qid, qx, qy, d_k)
        self.publish_and_push(spec, [oid for _, oid in result])

    def _repair(self, spec: QuerySpec) -> None:
        """Re-evaluate one dirty query (subclass responsibility)."""
        raise NotImplementedError

    def _seed_dirty(self) -> Set[int]:
        """Queries never evaluated yet are always dirty."""
        return {
            spec.qid for spec in self.queries
            if spec.qid not in self._region_cells
        }

    def _mark_dirty(self, dirty: Set[int], oid: int, old, new) -> None:
        """Dirty the queries one scalar ``(oid, old, new)`` report affects."""
        if old == new:
            return  # a parked object cannot affect any answer
        dirty.update(self.queries.queries_of_focal(oid))
        self.meter.charge(CostMeter.BOOKKEEPING)
        if old is not None:
            dirty.update(self._cell_map.get(self.grid.cell_of(*old), ()))
        dirty.update(self._cell_map.get(self.grid.cell_of(*new), ()))

    def _repair_dirty(self, dirty: Set[int]) -> None:
        for qid in sorted(dirty):
            self._repair(self.queries.get(qid))

    def _process(self, tick, updates) -> None:
        dirty = self._seed_dirty()
        for oid, old, new in updates:
            self._mark_dirty(dirty, oid, old, new)
        self._repair_dirty(dirty)

    def _process_entries(self, tick, entries) -> None:
        """Vectorized dirty detection over columnar update batches.

        Per batched report the scalar path would: mark focal queries
        dirty if the position changed (or the object is new), charge
        one BOOKKEEPING per changed report, and mark every query whose
        answer region intersects the old or the new cell. All of that
        reduces to masks over the batch columns plus a lookup of the
        (few) distinct touched cells in ``_cell_map``.
        """
        import numpy as np

        dirty = self._seed_dirty()
        cells = self.grid.cells
        cell_map = self._cell_map
        focals = [(spec.focal_oid, spec.qid) for spec in self.queries]
        for e in entries:
            if type(e) is not BatchUpdates:
                self._mark_dirty(dirty, *e)
                continue
            moved = ~e.known | (e.old_x != e.new_x) | (e.old_y != e.new_y)
            if e.oids.shape[0] and focals:
                # Focal objects are few; locate each in the (ascending
                # oid) batch instead of scanning the batch for them.
                oids = e.oids
                n = oids.shape[0]
                for foid, qid in focals:
                    i = int(np.searchsorted(oids, foid))
                    if i < n and oids[i] == foid and moved[i]:
                        dirty.add(qid)
            n_moved = int(np.count_nonzero(moved))
            if not n_moved:
                continue
            self.meter.charge(CostMeter.BOOKKEEPING, n_moved)
            if cell_map:
                touched = np.unique(
                    np.concatenate(
                        (
                            e.old_cell[moved & e.known],
                            e.new_cell[moved],
                        )
                    )
                )
                for lin in touched.tolist():
                    qids = cell_map.get((lin // cells, lin % cells))
                    if qids:
                        dirty.update(qids)
        self._repair_dirty(dirty)


def build_centralized_system(
    server: CentralizedServerBase,
    fleet,
    specs: Sequence[QuerySpec],
    latency: str,
    faults: Optional[FaultPlan],
    telemetry,
) -> RoundSimulator:
    """Register ``specs`` on ``server`` and wire one reporter per object.

    A :class:`~repro.mobility.FastFleet` makes the grid dense (the
    vectorized ``_process_entries`` route) and ships each tick's report
    stream as one columnar ``TICK_REPORT`` batch (:class:`ReporterPhase`).
    """
    for spec in specs:
        server.register_query(spec)
    mobiles = [ReporterNode(oid, fleet) for oid in range(fleet.n)]
    phase = None
    if is_vectorized(fleet):
        phase = ReporterPhase()
        server.grid.enable_dense(fleet.n)
        server.columnar = True
    return RoundSimulator(
        fleet,
        server,
        mobiles,
        latency=latency,
        faults=faults,
        client_phase=phase,
        telemetry=telemetry,
    )
