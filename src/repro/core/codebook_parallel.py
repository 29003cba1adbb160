"""Two-phase parallel canonical codebook construction (paper §IV-B).

Driver that glues the pipeline together exactly as the paper's stage 2-3:

1. sort the histogram ascending (Thrust on the GPU; "low-cost, as n is
   relatively small compared to the input data size");
2. GenerateCL — codeword lengths (:mod:`repro.core.generate_cl`);
3. GenerateCW — canonical codewords + First/Entry decoding metadata
   (:mod:`repro.core.generate_cw`).

Because GenerateCW's output is already canonical, the separate canonize
kernel of the baseline (see :mod:`repro.core.canonical`) is unnecessary —
this is the paper's key structural improvement over cuSZ's stage 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.generate_cl import generate_cl
from repro.core.generate_cw import generate_cw
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.cuda.launch import KernelInfo, register_kernel
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import add_attrs as _add_attrs
from repro.obs import span as _span

__all__ = ["ParallelCodebookResult", "parallel_codebook"]

register_kernel(KernelInfo(
    name="codebook.sort_histogram",
    stage="build codebook",
    granularity="fine",
    mapping="many-to-one",
    primitives=("reduction",),
    boundary="sync device",
))
register_kernel(KernelInfo(
    name="codebook.generate_cl",
    stage="build codebook",
    granularity="coarse+fine",
    mapping="one-to-one",
    primitives=("atomic write",),
    boundary="sync grid",
))
register_kernel(KernelInfo(
    name="codebook.generate_cw",
    stage="build codebook",
    granularity="fine",
    mapping="one-to-one",
    primitives=("atomic write",),
    boundary="sync grid",
))


@dataclass
class ParallelCodebookResult:
    codebook: CanonicalCodebook
    costs: list[KernelCost]  # sort, generate_cl, generate_cw
    rounds: int  # GenerateCL melding rounds
    levels: int  # GenerateCW length classes

    @property
    def total_cost(self) -> KernelCost:
        from repro.cuda.costmodel import combine_costs

        return combine_costs(self.costs, name="codebook.parallel")

    def modeled_ms(self, device: DeviceSpec) -> float:
        from repro.cuda.costmodel import CostModel

        model = CostModel(device)
        return sum(model.time(c).milliseconds for c in self.costs)


def parallel_codebook(
    freqs: np.ndarray, device: DeviceSpec = V100
) -> ParallelCodebookResult:
    """Build a canonical codebook with the GPU two-phase algorithm."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be one-dimensional")
    n = int(freqs.size)
    with _span("encode.codebook", n_symbols=n, device=device.name):
        used = np.flatnonzero(freqs > 0)
        # Thrust-style ascending sort; stable so frequency ties break by
        # symbol id, keeping the construction deterministic.
        with _span("encode.codebook.sort", n_used=int(used.size)):
            order = used[np.argsort(freqs[used], kind="stable")]
            f_sorted = freqs[order]

        sort_cost = KernelCost(
            name="codebook.sort_histogram",
            bytes_coalesced=float(f_sorted.nbytes * 8),  # multi-pass radix
            launches=1,
            compute_cycles=float(max(used.size, 1)) * 8.0,
            meta={"n": n, "n_used": int(used.size)},
        )

        with _span("encode.codebook.generate_cl"):
            cl = generate_cl(f_sorted)
        with _span("encode.codebook.generate_cw"):
            cw = generate_cw(cl.lengths_sorted, order, n, device=device)
        # The separate canonize kernel of the cuSZ baseline is unnecessary
        # here: GenerateCW emits canonical codes directly (the paper's key
        # structural improvement).  The stage span is still emitted — with
        # zero-ish width and ``fused=True`` — so traces always carry one
        # span per paper pipeline stage.
        with _span("encode.canonize", fused=True,
                   fused_into="encode.codebook.generate_cw"):
            book = cw.codebook
        _add_attrs(rounds=cl.rounds, levels=cw.levels,
                   max_length=int(book.max_length))
    return ParallelCodebookResult(
        codebook=book,
        costs=[sort_cost, cl.cost, cw.cost],
        rounds=cl.rounds,
        levels=cw.levels,
    )
