"""Compiled-kernel backend registry (ROADMAP item 2).

The three hot inner loops — the scan-pack packed reduce + scatter-OR,
the LUT-gather batch/gap decode walks, and histogramming — dispatch
through this registry instead of hardwiring NumPy.  The design mirrors
numba's ``config.ENABLE_CUDASIM`` switch-at-import and
``FakeCUDAKernel`` simulator pattern: every backend exposes the same
kernel surface (:class:`KernelBackend`), the NumPy reference is always
available, and the ``njit`` backend swaps real ``@njit(cache=True)``
kernels for their *uncompiled* pure-Python bodies when
``REPRO_NJIT_SIM=1`` — the simulator that lets every njit code path run
(and be diffed against NumPy byte-for-byte) on hosts without numba.

Selection, in priority order:

1. an explicit ``backend=`` argument on the public entry points
   (``gpu_encode``, ``decode_batch``/``decode_stream``,
   ``gpu_histogram``, ``parallel_encode``, ...);
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``"numpy"``.

A selected backend that is *unavailable* (numba missing, compilation
failed, or killed via ``REPRO_BACKEND_DISABLE_NJIT=1`` — the
``gap_native.py`` kill-switch pattern) degrades to the NumPy reference
and counts the degradation in
``repro_backend_fallback_total{reason=...}`` so a silently slow fleet
is visible on ``/stats`` and ``/metrics``.

Every backend must be byte-identical to the reference over the full
conformance matrix; ``repro.conform`` enrolls one encode and two decode
columns per non-reference backend, and
``tests/test_backends_differential.py`` diffs the kernels directly.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.obs import metrics as _metrics

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "available_backends",
    "backend_availability",
    "get_backend",
    "register_backend",
    "registered_backends",
    "njit_ready",
    "njit_compiled",
]

#: the always-available reference backend
DEFAULT_BACKEND = "numpy"

#: env var naming the process-wide default backend
BACKEND_ENV = "REPRO_BACKEND"


#: ``(sub, node_base, node_bits)`` of a root-only (flat) table
_NO_SUBTABLES = (
    np.empty(0, np.int32), np.empty(0, np.int64), np.empty(0, np.int32)
)


class KernelBackend:
    """Uniform kernel surface a backend implements.

    Subclasses provide the three hot loops.  All kernels are pinned to
    the NumPy reference semantics bit-for-bit (the conformance matrix
    and the differential tests enforce this):

    - :meth:`histogram` — ``np.bincount(flat, minlength=num_bins)``
      semantics (result may be longer than ``num_bins`` when symbols
      exceed the range; negative symbols raise ``ValueError``).
    - :meth:`scan_pack_cells` — fold ``group`` packed
      ``(code << 16) | length`` words per cell, detect broken cells,
      and scatter-OR the surviving cells into the dense per-chunk word
      grid (the fused prefix-sum + scatter of
      :mod:`repro.core.scan_pack`).
    - :meth:`decode_lanes_pass` / :meth:`gap_sync_pass` /
      :meth:`gap_decode_pass` — the LUT-gather decode walks over a
      packed ``(symbol << 8) | length`` table, mirroring
      :mod:`repro.decoder.gap_native`'s kernel contract.
    - :meth:`decode_lanes_tiered_pass` / :meth:`gap_sync_tiered_pass` /
      :meth:`gap_decode_tiered_pass` — the same walks over a *tiered*
      table (2^k1 packed root + flat subtable array; see
      ``huffman/decoder.py``): long codewords resolve by descending
      node pointers instead of a First/Entry scan, so a complete tiered
      table never needs a fallback path.  As in the C kernel, a flat
      table is the zero-subtable case: the two flat gap passes are
      defined here as the tiered ones over a root-only table.
    """

    #: registry name; also the value of span/label attributes
    name = "abstract"

    def availability(self) -> tuple[bool, str]:
        """``(ok, reason)`` — ``reason`` is a stable fallback-counter
        label (``"disabled"``, ``"numba_missing"``, ``"compile_error"``)
        when ``ok`` is False."""
        return True, ""

    # --- hot-loop kernels (see subclasses) --------------------------------
    def histogram(self, flat, num_bins):  # pragma: no cover - abstract
        raise NotImplementedError

    def scan_pack_cells(self, p, group, n_chunks, cpc, word_bits):
        raise NotImplementedError  # pragma: no cover - abstract

    def decode_lanes_pass(self, pbuf, starts, ends, nsyms, out_off, tab, k):
        raise NotImplementedError  # pragma: no cover - abstract

    def gap_sync_pass(self, pbuf, ch_start, ch_end, lane_base, S, tab, k):
        return self.gap_sync_tiered_pass(
            pbuf, ch_start, ch_end, lane_base, S, tab, *_NO_SUBTABLES, k
        )

    def gap_decode_pass(self, pbuf, bit_off, out_off, out_end, tab, k, n_out):
        return self.gap_decode_tiered_pass(
            pbuf, bit_off, out_off, out_end, tab, *_NO_SUBTABLES, k, n_out
        )

    def decode_lanes_tiered_pass(
        self, pbuf, starts, ends, nsyms, out_off,
        l1, sub, node_base, node_bits, k1,
    ):
        raise NotImplementedError  # pragma: no cover - abstract

    def gap_sync_tiered_pass(
        self, pbuf, ch_start, ch_end, lane_base, S,
        l1, sub, node_base, node_bits, k1,
    ):
        raise NotImplementedError  # pragma: no cover - abstract

    def gap_decode_tiered_pass(
        self, pbuf, bit_off, out_off, out_end,
        l1, sub, node_base, node_bits, k1, n_out,
    ):
        raise NotImplementedError  # pragma: no cover - abstract


_LOCK = threading.Lock()
_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(name: str, backend: KernelBackend) -> None:
    """Register ``backend`` under ``name`` (thread-safe).

    Re-registering an existing name replaces it — tests swap in broken
    or instrumented backends this way; production code registers each
    backend exactly once at import.
    """
    with _LOCK:
        _REGISTRY[str(name)] = backend


def registered_backends() -> list[str]:
    """All registered backend names, available or not."""
    with _LOCK:
        return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Names of backends whose kernels can run right now."""
    with _LOCK:
        items = list(_REGISTRY.items())
    return sorted(n for n, b in items if b.availability()[0])


def backend_availability(name: str) -> tuple[bool, str]:
    """``(ok, reason)`` for one registered backend name."""
    with _LOCK:
        bk = _REGISTRY.get(str(name))
    if bk is None:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{registered_backends()}"
        )
    return bk.availability()


def get_backend(
    name: str | None = None, *, quiet: bool = False
) -> KernelBackend:
    """Resolve a backend: argument > ``REPRO_BACKEND`` env > default.

    An unknown name raises ``ValueError`` listing the registered names.
    A known-but-unavailable backend falls back to the NumPy reference;
    the fallback is counted in
    ``repro_backend_fallback_total{reason=...}`` unless ``quiet`` (used
    by introspection paths that must not inflate the counter).
    """
    requested = name or os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    with _LOCK:
        bk = _REGISTRY.get(requested)
        fallback = _REGISTRY.get(DEFAULT_BACKEND)
    if bk is None:
        raise ValueError(
            f"unknown backend {requested!r}; registered backends: "
            f"{registered_backends()}"
        )
    ok, why = bk.availability()
    if ok:
        return bk
    if not quiet:
        _metrics().counter(
            "repro_backend_fallback_total", reason=why or "unavailable"
        ).inc()
    assert fallback is not None, "numpy reference backend missing"
    return fallback


def njit_ready() -> bool:
    """True when the njit backend's kernels can run (compiled or the
    ``REPRO_NJIT_SIM=1`` pure-Python simulator)."""
    try:
        return backend_availability("njit")[0]
    except ValueError:  # pragma: no cover - njit always registered
        return False


def njit_compiled() -> bool:
    """True only when numba itself is importable and enabled — the bar
    for perf gates (simulator availability is not a perf claim)."""
    from repro.backends import njit_backend

    return njit_backend.numba_status()[0] and not os.environ.get(
        njit_backend.DISABLE_ENV
    )


# --- register the built-in backends at import ------------------------------
from repro.backends.njit_backend import NjitBackend  # noqa: E402
from repro.backends.numpy_backend import NumpyBackend  # noqa: E402

register_backend("numpy", NumpyBackend())
register_backend("njit", NjitBackend())
