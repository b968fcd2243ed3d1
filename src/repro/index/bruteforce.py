"""Brute-force reference implementations.

These are the oracles the whole repository is tested against: every
algorithm's answer must equal :func:`brute_knn` over the ground-truth
fleet positions.

Two interchangeable engines exist:

* the **scalar** engine (``brute_knn_scalar`` / ``brute_range_scalar``)
  — a plain Python loop, deliberately simple, the executable spec;
* the **vectorized** engine (``brute_knn_np`` / ``brute_range_np``) —
  numpy ``argpartition`` + ``lexsort``, bit-identical to the scalar
  engine (every float op is IEEE correctly rounded in both, and the
  canonical ``(distance, oid)`` tie-break is reproduced exactly).

:func:`brute_knn` / :func:`brute_range` dispatch to the vectorized
engine for populations above a small cutoff; property tests pin the two
engines to the ulp (``tests/test_index_vectorized.py``).
"""

from __future__ import annotations

import math
from typing import AbstractSet, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_

__all__ = [
    "brute_knn",
    "brute_range",
    "brute_knn_ids",
    "brute_knn_scalar",
    "brute_range_scalar",
    "brute_knn_np",
    "brute_range_np",
    "as_xy_arrays",
]

_EMPTY: FrozenSet[int] = frozenset()

#: Below this population the scalar loop beats array setup overhead.
_VECTOR_MIN = 64


def as_xy_arrays(
    positions: Sequence[Tuple[float, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays for ``positions``.

    Structure-of-arrays position views (``repro.mobility.soa``) are
    passed through zero-copy; anything else (lists of tuples) is
    converted once.
    """
    xs = getattr(positions, "xs", None)
    ys = getattr(positions, "ys", None)
    if xs is not None and ys is not None:
        return np.asarray(xs, dtype=np.float64), np.asarray(ys, np.float64)
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise IndexError_(f"positions must be (n, 2)-shaped, got {arr.shape}")
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def _eligible_dists(
    positions: Sequence[Tuple[float, float]],
    qx: float,
    qy: float,
    exclude: AbstractSet[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distances, oids)`` of every non-excluded object.

    Distances use ``sqrt(dx*dx + dy*dy)`` — the exact float recipe of
    :func:`repro.geometry.dist` — so results match the scalar oracle
    bit-for-bit.
    """
    xs, ys = as_xy_arrays(positions)
    dx = xs - qx
    dy = ys - qy
    d = np.sqrt(dx * dx + dy * dy)
    oids = np.arange(d.shape[0], dtype=np.int64)
    if exclude:
        keep = np.ones(d.shape[0], dtype=bool)
        for o in exclude:
            if 0 <= o < keep.shape[0]:
                keep[o] = False
        d = d[keep]
        oids = oids[keep]
    return d, oids


def brute_knn_np(
    positions: Sequence[Tuple[float, float]],
    qx: float,
    qy: float,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[Tuple[float, int]]:
    """Vectorized exact kNN; same contract and bits as the scalar form."""
    if k < 1:
        raise IndexError_(f"k must be >= 1, got {k}")
    return _top_k(*_eligible_dists(positions, qx, qy, exclude), k)


def _top_k(
    d: np.ndarray, oids: np.ndarray, k: int
) -> List[Tuple[float, int]]:
    """The ``k`` smallest ``(distance, oid)`` pairs, ascending.

    The kernel behind :func:`brute_knn_np`, shared with PER's
    vectorized scan so the oracle and the baseline run one engine.
    """
    m = d.shape[0]
    if m == 0:
        return []
    kk = min(k, m)
    if kk < m:
        # argpartition bounds the k-th distance; ties at that boundary
        # are then settled by the canonical (distance, oid) lexsort over
        # the (small) candidate set, matching the scalar sort exactly.
        part = np.argpartition(d, kk - 1)
        kth = d[part[kk - 1]]
        cand = np.nonzero(d <= kth)[0]
    else:
        cand = np.arange(m)
    order = np.lexsort((oids[cand], d[cand]))
    top = cand[order[:kk]]
    return [(float(d[i]), int(oids[i])) for i in top]


def brute_range_np(
    positions: Sequence[Tuple[float, float]],
    cx: float,
    cy: float,
    r: float,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[Tuple[float, int]]:
    """Vectorized exact range query; bit-identical to the scalar form."""
    if r < 0:
        raise IndexError_(f"negative radius {r}")
    d, oids = _eligible_dists(positions, cx, cy, exclude)
    hit = np.nonzero(d <= r)[0]
    order = np.lexsort((oids[hit], d[hit]))
    hit = hit[order]
    return [(float(d[i]), int(oids[i])) for i in hit]


def brute_knn_scalar(
    positions: Sequence[Tuple[float, float]],
    qx: float,
    qy: float,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[Tuple[float, int]]:
    """Exact kNN over ``positions`` (indexed by object id), pure Python.

    Returns up to ``k`` ``(distance, oid)`` pairs, ascending by
    ``(distance, oid)`` — the canonical tie-break used across the
    library.
    """
    if k < 1:
        raise IndexError_(f"k must be >= 1, got {k}")
    scored = []
    for oid, (x, y) in enumerate(positions):
        if oid in exclude:
            continue
        dx = x - qx
        dy = y - qy
        scored.append((math.sqrt(dx * dx + dy * dy), oid))
    scored.sort()
    return scored[:k]


def brute_range_scalar(
    positions: Sequence[Tuple[float, float]],
    cx: float,
    cy: float,
    r: float,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[Tuple[float, int]]:
    """All objects within distance ``r``, ascending ``(distance, oid)``."""
    if r < 0:
        raise IndexError_(f"negative radius {r}")
    hits = []
    for oid, (x, y) in enumerate(positions):
        if oid in exclude:
            continue
        dx = x - cx
        dy = y - cy
        d = math.sqrt(dx * dx + dy * dy)
        if d <= r:
            hits.append((d, oid))
    hits.sort()
    return hits


def brute_knn(
    positions: Sequence[Tuple[float, float]],
    qx: float,
    qy: float,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[Tuple[float, int]]:
    """Exact kNN, auto-dispatched to the fastest bit-identical engine."""
    if len(positions) >= _VECTOR_MIN:
        return brute_knn_np(positions, qx, qy, k, exclude)
    return brute_knn_scalar(positions, qx, qy, k, exclude)


def brute_range(
    positions: Sequence[Tuple[float, float]],
    cx: float,
    cy: float,
    r: float,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[Tuple[float, int]]:
    """Exact range query, auto-dispatched like :func:`brute_knn`."""
    if len(positions) >= _VECTOR_MIN:
        return brute_range_np(positions, cx, cy, r, exclude)
    return brute_range_scalar(positions, cx, cy, r, exclude)


def brute_knn_ids(
    positions: Sequence[Tuple[float, float]],
    qx: float,
    qy: float,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> List[int]:
    """Ids only, in ascending ``(distance, oid)`` order."""
    return [oid for _, oid in brute_knn(positions, qx, qy, k, exclude)]
