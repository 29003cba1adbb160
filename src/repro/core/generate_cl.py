"""GenerateCL: parallel codeword-length construction (Algorithm 1, top).

This is the GPU implementation of the first phase of Ostadzadeh et al.'s
two-phase parallel Huffman algorithm, as modified by the paper.  Given the
histogram sorted by ascending frequency, each round:

1. melds the two globally smallest nodes into a threshold node ``t``;
2. selects every remaining *leaf* with frequency below ``t`` (a prefix of
   the sorted leaf queue — found with the ``copy``/``atomicMax`` idiom of
   Algorithm 1, lines 8–13);
3. PARMERGEs the selected leaves with the internal-node queue (GPU Merge
   Path, fused into the same kernel — :mod:`repro.core.merge_path`; the
   partition search models the GPU kernel, and the host takes the
   round's order from a stable argsort checked against
   :func:`~repro.core.merge_path.stable_merge`);
4. melds adjacent pairs of the merged sequence in parallel (dropping the
   largest element back into the queue when the count is odd, the
   ``s``-adjustment of line 16);
5. concurrently updates every leaf's codeword length and leader pointer
   (line 23–25; the host reads the same lengths off the tree once, after
   the last round).

Rounds repeat until one subtree remains; the number of rounds is O(H) for
codeword height H, which is what gives the observed O(H log(n/H)) ≈
O(log n) scaling of Table III.

Node bookkeeping is structure-of-arrays, as in the paper ("accesses to
single fields of consecutive elements are coalesced"): flat per-node
frequency and parent vectors over leaves and subtree nodes.  The safety of
pairwise melding (every selected node is smaller than ``t``) is
Ostadzadeh's Lemma; we assert the resulting queue stays sorted and the
test-suite validates optimality against the serial tree on thousands of
histograms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.core.merge_path import stable_merge
from repro.cuda.costmodel import KernelCost

__all__ = ["GenerateCLResult", "generate_cl"]

#: grid synchronizations per round in the fused kernel: threshold meld,
#: leaf selection (atomicMax), merge-path partition + merge, and the
#: fused pairwise-meld + leaf-update region
_SYNCS_PER_ROUND = 4
#: shared/register cycles charged per element touched in a round
_CYCLES_PER_ELEMENT = 10.0


@dataclass
class GenerateCLResult:
    """Codeword lengths for the frequency-sorted alphabet + structure."""

    lengths_sorted: np.ndarray  # int32, aligned with the sorted histogram
    rounds: int
    cost: KernelCost
    merge_elements: int  # total elements passed through PARMERGE
    max_queue: int


def generate_cl(freq_sorted: np.ndarray) -> GenerateCLResult:
    """Run GenerateCL on an ascending-sorted positive histogram.

    ``freq_sorted`` must contain only the *used* symbols' frequencies in
    ascending order; returns one codeword length per entry.
    """
    f = np.asarray(freq_sorted, dtype=np.int64)
    if f.ndim != 1:
        raise ValueError("freq_sorted must be one-dimensional")
    if f.size and np.any(np.diff(f) < 0):
        raise ValueError("freq_sorted must be ascending")
    if np.any(f <= 0):
        raise ValueError("freq_sorted must be strictly positive")
    m = int(f.size)
    if m <= 1:
        return GenerateCLResult(
            lengths_sorted=np.ones(m, dtype=np.int32), rounds=0,
            cost=KernelCost(name="codebook.generate_cl", launches=1,
                            meta={"rounds": 0, "n": m}),
            merge_elements=0, max_queue=0,
        )

    # ---- structure-of-arrays node registry ------------------------------
    # ids < m are raw leaves; ids >= m are subtree (internal) nodes,
    # allocated in increasing order, so a node's parent always has a
    # higher id.  m leaves meld into exactly m - 1 internal nodes, and
    # each node melds into its parent once: ``parent`` is the whole tree
    node_freq = np.zeros(2 * m, dtype=np.int64)
    node_freq[:m] = f
    f_list = f.tolist()
    parent = np.full(2 * m, -1, dtype=np.int64)
    next_id = m
    round_first_id: list[int] = []

    # queues: leaf front index + internal queue of node ids (kept sorted
    # ascending by frequency)
    c = 0  # leaves consumed
    iq = np.empty(0, dtype=np.int64)

    rounds = 0
    merge_elements = 0
    max_queue = 0
    atomic_ops = 0

    while (m - c) + iq.size > 1:
        rounds += 1
        round_first_id.append(next_id)
        # -- 1. threshold node t from the two smallest -------------------
        picks = []
        for _ in range(2):
            if c < m and (not iq.size or f_list[c] <= node_freq[iq[0]]):
                picks.append(c)
                c += 1
            else:
                picks.append(int(iq[0]))
                iq = iq[1:]
        t_id = next_id
        next_id += 1
        t_freq = int(node_freq[picks[0]] + node_freq[picks[1]])
        node_freq[t_id] = t_freq
        parent[picks] = t_id

        # -- 2. select eligible leaves (freq < t) ------------------------
        # (the copy/atomicMax selection of lines 8-13; a prefix because the
        # leaf queue is sorted)
        k = bisect_left(f_list, t_freq, c) - c
        atomic_ops += k

        # -- 3. PARMERGE leaves with the internal queue ------------------
        # Ostadzadeh's Lemma: all queued internal nodes are < t
        sel = iq
        temp = np.empty(0, dtype=np.int64)
        if k or sel.size:
            merged_freqs = stable_merge(f[c: c + k], node_freq[sel])
            merge_elements += merged_freqs.size
            # id order of the stable merge: a stable argsort of the
            # concatenated keys IS the two-pointer merge with leaf priority
            # on ties (copy precedes sel in the concatenation)
            all_ids = np.concatenate([np.arange(c, c + k), sel])
            keys = node_freq[all_ids]
            temp = all_ids[keys.argsort(kind="stable")]
            assert np.array_equal(node_freq[temp], merged_freqs)
        c += k

        # -- 4. even-size adjustment + pairwise meld ---------------------
        leftover = temp[temp.size & ~1:]
        xs, ys = temp[0: temp.size - 1: 2], temp[1::2]
        new_ids = np.arange(next_id, next_id + xs.size, dtype=np.int64)
        next_id += xs.size
        node_freq[new_ids] = node_freq[xs] + node_freq[ys]
        parent[xs] = new_ids
        parent[ys] = new_ids

        # rebuild the queue: leftover < t <= melds (ascending)
        iq = np.concatenate([leftover, [t_id], new_ids])
        qf = node_freq[iq]
        if (qf[1:] < qf[:-1]).any():  # pragma: no cover - theory guard
            iq = iq[qf.argsort(kind="stable")]
        max_queue = max(max_queue, iq.size)

    # -- 5. UPDATELEAFNODE: each round adds one to the CL of every leaf
    # under a node it melded, so a leaf's CL is its depth in the tree.
    # Read depths off ``parent`` round by round from the root down (a
    # round's nodes are one id range, and their parents come from later
    # rounds); the root's parent -1 reads the sentinel slot, depth -1
    depth = np.zeros(2 * m + 1, dtype=np.int32)
    depth[-1] = -1
    bounds = round_first_id + [next_id]
    for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
        depth[lo:hi] = depth[parent[lo:hi]] + 1
    CL = depth[parent[:m]] + 1

    H = int(CL.max())
    # structural cost: every round touches O(n) node state across five
    # fine-grained parallel regions synchronized with cooperative groups
    cost = KernelCost(
        name="codebook.generate_cl",
        bytes_coalesced=float(rounds * (m * 12) + merge_elements * 16),
        shared_atomics=float(atomic_ops),
        atomic_conflict_degree=1.0,
        launches=1,
        grid_syncs=rounds * _SYNCS_PER_ROUND,
        compute_cycles=float(rounds * m + 2 * merge_elements) * _CYCLES_PER_ELEMENT,
        meta={
            "rounds": rounds,
            "n": m,
            "H": H,
            "merge_elements": merge_elements,
            "max_queue": max_queue,
        },
    )
    return GenerateCLResult(
        lengths_sorted=CL,
        rounds=rounds,
        cost=cost,
        merge_elements=merge_elements,
        max_queue=max_queue,
    )
