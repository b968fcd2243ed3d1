"""In-memory span recording around the public calls into each layer.

The benchmark never turns on the package's own ``Tracer``: an active
tracer vetoes the columnar message plane, so a traced run would time a
different program. Instead, :func:`install` replaces a few bound
methods of an already-built system with timing wrappers (instance
attributes shadow the class methods), leaving every decision the
program makes unchanged.

A span is (name, start, end, parent, root). Spans are kept in flat
arrays while the run goes and are aggregated when it ends: a span's
self-time is its duration minus the durations of its children (calls
are nested on one thread, so children never overlap).
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: the span that roots each tick
TICK = "net.step"

#: node hooks of a server, timed on the plain server (or the inner
#: engine of a sharded tier) as ``server.*`` and on the tier as
#: ``sharding.*``
SERVER_HOOKS = (
    ("on_tick_start", "tick_start"),
    ("on_subround", "subround"),
    ("on_tick_end", "tick_end"),
    ("on_message", "message"),
    ("on_uplink_batch", "uplink_batch"),
)


class SpanRecorder:
    """Spans of one run, stored column-wise."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``."""
        fn: Callable = getattr(obj, attr)
        nid = self._name_id(name)
        names, parents, roots = self.name, self.parent, self.root
        starts, ends = self.start, self.end
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            i = len(starts)
            up = rec._open
            names.append(nid)
            parents.append(up)
            roots.append(i if up < 0 else roots[up])
            ends.append(0.0)
            rec._open = i
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                rec._open = up

        setattr(obj, attr, traced)

    def aggregate(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-name self-seconds and call counts of the spans inside
        ticks."""
        n = len(self.start)
        if n == 0:
            return {}, {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=dur[nested], minlength=n
        )
        self_s = dur - children
        tick_id = self._ids.get(TICK)
        in_tick = name[root] == tick_id
        k = len(self.names)
        self_by = np.bincount(name[in_tick], weights=self_s[in_tick], minlength=k)
        calls_by = np.bincount(name[in_tick], minlength=k)
        return (
            {nm: float(self_by[i]) for i, nm in enumerate(self.names)},
            {nm: int(calls_by[i]) for i, nm in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            root=np.frombuffer(self.root, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _has_method(obj, attr: str) -> bool:
    # Look on the class: the sharded tier forwards unknown attributes
    # to its inner engine, which must not be mistaken for its own.
    return callable(getattr(type(obj), attr, None))


def _wrap_server(rec: SpanRecorder, server, prefix: str) -> None:
    for attr, short in SERVER_HOOKS:
        if _has_method(server, attr):
            rec.wrap(server, attr, f"{prefix}.{short}")


def install(rec: SpanRecorder, sim, sharded: bool, engine: bool) -> List[str]:
    """Wrap the layer calls of a built simulator.

    ``sharded`` / ``engine`` say whether the run was configured with a
    shard tier / an event engine. Returns the layer names whose handle
    could not be found (``ShardedServer.inner``, ``sim._driver``): their
    metrics are left out rather than guessed.
    """
    missing: List[str] = []
    rec.wrap(sim, "step", TICK)
    rec.wrap(sim.fleet, "advance", "mobility.advance")
    rec.wrap(sim.channel, "collect", "net.collect")
    phase = sim.client_phase
    if phase is not None:
        rec.wrap(phase, "tick_start", "core.client")
        rec.wrap(phase, "deliver_area", "core.deliver_area")
        rec.wrap(phase, "deliver_batch", "core.deliver_batch")
    server = sim.server
    inner: Optional[object] = getattr(server, "inner", None) if sharded else None
    if inner is not None:
        _wrap_server(rec, server, "sharding")
        _wrap_server(rec, inner, "server")
    else:
        if sharded:
            missing.append("sharding")
        _wrap_server(rec, server, "server")
    driver = getattr(sim, "_driver", None)
    if driver is not None:
        rec.wrap(driver, "after_full_step", "engine.replan")
        rec.wrap(driver, "skip_tick", "engine.skip")
    elif engine:
        missing.append("engine")
    return missing
