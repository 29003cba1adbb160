"""GPU Merge Path (Green, McColl, Bader) for GenerateCL's PARMERGE.

Merging the selected leaf nodes with the internal-node queue is the most
expensive operation inside GenerateCL.  The paper customizes the GPU Merge
Path algorithm: the merged sequence is partitioned into ``p`` equal spans
by binary searches along cross diagonals of the merge matrix, and each
partition is then merged serially by one thread block (coarse-grained
parallelism).  The practical complexity is O(n/p + log n), and the paper
fuses this into the GenerateCL kernel rather than launching it separately.

We implement the diagonal partition search exactly (it is pure index
arithmetic) and the per-partition serial merge vectorably; the structural
output — partition count, per-partition spans, diagonal search depth —
feeds the cost model.  The partition search models the GPU kernel only:
the host codebook path (:mod:`repro.core.generate_cl`) merges with
:func:`stable_merge` directly, because on a host the search result would
be computed and thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MergeStats", "merge_path_partition", "parallel_merge", "stable_merge",
]


@dataclass
class MergeStats:
    """Structural counts of one PARMERGE invocation."""

    total: int  # merged length
    partitions: int
    binary_search_steps: int  # per-diagonal search depth (max)
    max_partition_span: int  # serial merge length of the busiest partition


def merge_path_partition(
    a: np.ndarray, b: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Find the Merge Path split points of sorted arrays ``a`` and ``b``.

    Returns ``(ai, bi)`` of length ``p + 1``: partition ``k`` merges
    ``a[ai[k]:ai[k+1]]`` with ``b[bi[k]:bi[k+1]]``.  Split ``k`` lies on
    cross diagonal ``d = k * (len(a)+len(b)) / p``; on that diagonal we
    binary-search the unique point where ``a[i-1] <= b[d-i]``
    (one-dimensional search, O(log min(|a|, |b|)) steps).
    """
    na, nb = len(a), len(b)
    total = na + nb
    if p < 1:
        raise ValueError("p must be >= 1")
    diags = np.linspace(0, total, p + 1).astype(np.int64)
    ai = np.empty(p + 1, dtype=np.int64)
    bi = np.empty(p + 1, dtype=np.int64)
    for k, d in enumerate(diags):
        lo = max(0, d - nb)
        hi = min(d, na)
        # find smallest i in [lo, hi] with a[i] >= b[d - i - 1] (stable:
        # ties go to a)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid < na and d - mid - 1 >= 0 and a[mid] < b[d - mid - 1]:
                lo = mid + 1
            else:
                hi = mid
        ai[k] = lo
        bi[k] = d - lo
    return ai, bi


def stable_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two sorted arrays, ties taken from ``a`` first.

    The functional equivalent of the per-partition serial two-pointer
    loops: each element's position in the merged output comes from one
    ``searchsorted`` into the other array.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    pos_a = np.arange(a.size) + b.searchsorted(a, side="left")
    pos_b = np.arange(b.size) + a.searchsorted(b, side="right")
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
    out[pos_a] = a
    out[pos_b] = b
    return out


def parallel_merge(
    a: np.ndarray, b: np.ndarray, p: int
) -> tuple[np.ndarray, MergeStats]:
    """Stable merge of two sorted arrays via Merge Path partitions.

    Output equals ``sorted(concat(a, b))`` with ties taken from ``a``
    first.  The partition search is performed exactly as on the GPU; the
    per-partition serial merges are delegated to :func:`stable_merge`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    na, nb = len(a), len(b)
    total = na + nb
    if total == 0:
        return np.empty(0, dtype=a.dtype), MergeStats(0, p, 0, 0)
    ai, bi = merge_path_partition(a, b, p)
    out = stable_merge(a, b)

    spans = np.diff(ai) + np.diff(bi)
    stats = MergeStats(
        total=total,
        partitions=p,
        binary_search_steps=int(np.ceil(np.log2(max(min(na, nb), 1) + 1))),
        max_partition_span=int(spans.max()) if spans.size else 0,
    )
    return out, stats
