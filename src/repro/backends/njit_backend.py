"""The ``njit`` backend: numba ``@njit(cache=True)`` CPU kernels.

The kernel bodies below (histogram, scan-pack and the flat lane walk,
plus the three tiered decode walks — the flat gap passes are the tiered
ones over a root-only table) are plain-Python *nopython-compatible*
functions.  When numba imports cleanly they are wrapped with
``numba.njit(cache=True)`` on first use; when it does not, the backend
reports unavailable and the registry degrades to the NumPy reference —
**unless** ``REPRO_NJIT_SIM=1``, in which case the *uncompiled* bodies
run as-is.  That is numba's own ``ENABLE_CUDASIM``/``FakeCUDAKernel``
simulator pattern: the sim executes the identical kernel logic (same
loops, same integer widths) so the differential matrix and conformance
columns can prove njit == numpy byte-for-byte even on hosts without
numba.  ``REPRO_BACKEND_DISABLE_NJIT=1`` is the kill switch (the
``gap_native.py`` ``REPRO_GAP_DISABLE_NATIVE`` pattern).

Arithmetic parity notes (load-bearing — the differential tests pin
these):

- the packed scan-pack merge is the OR-form of
  ``scan_pack._packed_merge``: for a non-broken cell the value and
  length fields are disjoint so ADD == OR, and the length field is
  exact in both forms under the ``group * max_length <= 0xFFFF`` gate;
  broken cells differ only in garbage value bits that both paths zero.
- decode windows are assembled from four explicit ``int64`` byte
  casts — ``pbuf[i] << 24`` would wrap in uint8 under the simulator —
  and require ``k + 7 <= 32`` (k <= 16 everywhere in this codebase).
- uint64 values never mix with signed operands inside a single
  operation (numba would promote to float64); all shift counts stay
  <= 63.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.backends import KernelBackend

__all__ = [
    "NjitBackend",
    "DISABLE_ENV",
    "SIM_ENV",
    "numba_status",
]

#: kill switch: report unavailable regardless of numba/sim
DISABLE_ENV = "REPRO_BACKEND_DISABLE_NJIT"
#: run the uncompiled kernel bodies when numba is absent
SIM_ENV = "REPRO_NJIT_SIM"

# --- packed-word field constants (pre-made uint64 scalars: numba must
# --- never see a uint64/int64 mix, and the sim must never overflow) ----
_C1 = np.uint64(1)
_C16 = np.uint64(16)
_C63 = np.uint64(63)
_LENMASK = np.uint64(0xFFFF)
_VALMASK = np.uint64(0xFFFFFFFFFFFF0000)
_I8 = np.int64(0xFF)


# ---------------------------------------------------------------------------
# kernel bodies (nopython-compatible; run raw under REPRO_NJIT_SIM=1)
# ---------------------------------------------------------------------------

def _k_histogram(flat, nbins):
    out = np.zeros(nbins, np.int64)
    for i in range(flat.size):
        out[flat[i]] += 1
    return out


def _k_scan_pack_cells(p, group, n_chunks, cpc, W):
    wlog = 0
    while (1 << (wlog + 1)) <= W:
        wlog += 1
    maskW = (_C1 << np.uint64(W)) - _C1
    wb = np.uint64(W)
    n_cells = n_chunks * cpc
    words = np.zeros((n_chunks, cpc), np.uint32)
    bits = np.zeros(n_chunks, np.int64)
    broken = np.zeros(n_cells, np.bool_)
    cell_lengths = np.zeros(n_cells, np.int64)
    for ch in range(n_chunks):
        off = 0
        for ci in range(cpc):
            cell = ch * cpc + ci
            base = cell * group
            a = p[base]
            for g in range(1, group):
                b = p[base + g]
                # OR-form packed merge (see module docstring)
                sh = (b & _LENMASK) + _C16
                if sh > _C63:
                    sh = _C63
                a = (((a >> _C16) << sh) | (b & _VALMASK)) \
                    | ((b & _LENMASK) + (a & _LENMASK))
            le = np.int64(a & _LENMASK)
            cell_lengths[cell] = le
            if le > W:
                broken[cell] = True
            elif le > 0:
                v_left = ((a >> _C16) << (wb - np.uint64(le))) & maskW
                shift = np.uint64(off & (W - 1))
                widx = off >> wlog
                words[ch, widx] |= np.uint32(v_left >> shift)
                spill = (v_left << (wb - shift)) & maskW
                if spill != np.uint64(0):
                    words[ch, widx + 1] |= np.uint32(spill)
                off += le
        bits[ch] = off
    return words, bits, broken, cell_lengths


def _k_decode_lanes(pbuf, starts, ends, nsyms, out_off, tab, k):
    mask = np.int64((1 << k) - 1)
    lim = pbuf.size - 4
    n_out = np.int64(0)
    for j in range(nsyms.size):
        n_out += nsyms[j]
    out = np.empty(n_out, np.int64)
    exhausted = False
    for j in range(starts.size):
        bp = starts[j]
        oi = out_off[j]
        for _ in range(nsyms[j]):
            bidx = bp >> 3
            if bidx > lim:
                # corrupt-stream overrun: any in-bounds window will do,
                # the post-loop exhaustion check raises either way
                bidx = lim
            w32 = (np.int64(pbuf[bidx]) << 24) \
                | (np.int64(pbuf[bidx + 1]) << 16) \
                | (np.int64(pbuf[bidx + 2]) << 8) \
                | np.int64(pbuf[bidx + 3])
            win = (w32 >> (32 - k - (bp & 7))) & mask
            ent = np.int64(tab[win])
            out[oi] = ent >> 8
            oi += 1
            bp += ent & _I8
        if bp > ends[j]:
            exhausted = True
    return out, exhausted


def _k_decode_lanes_tiered(pbuf, starts, ends, nsyms, out_off,
                           l1, sub, node_base, node_bits, k1):
    # tiered resolve: the k1-bit root gather either carries a packed
    # (sym << 8) | abs_len entry (low byte nonzero) or a node pointer;
    # pointers descend through the flat subtable array, node_bits[n]
    # fresh stream bits per level.  Window parity rules are identical
    # to the flat walk: k1 <= 25 and node_bits <= 12 both satisfy
    # k + 7 <= 32 for the four-byte assembly.
    mask1 = np.int64((1 << k1) - 1)
    lim = pbuf.size - 4
    n_out = np.int64(0)
    for j in range(nsyms.size):
        n_out += nsyms[j]
    out = np.empty(n_out, np.int64)
    exhausted = False
    sub_steps = np.int64(0)
    for j in range(starts.size):
        bp = starts[j]
        oi = out_off[j]
        for _ in range(nsyms[j]):
            bidx = bp >> 3
            if bidx > lim:
                bidx = lim
            w32 = (np.int64(pbuf[bidx]) << 24) \
                | (np.int64(pbuf[bidx + 1]) << 16) \
                | (np.int64(pbuf[bidx + 2]) << 8) \
                | np.int64(pbuf[bidx + 3])
            win = (w32 >> (32 - k1 - (bp & 7))) & mask1
            ent = np.int64(l1[win])
            q = bp + k1
            while (ent & _I8) == 0:
                node = ent >> 8
                nb = np.int64(node_bits[node])
                bidx = q >> 3
                if bidx > lim:
                    bidx = lim
                w32 = (np.int64(pbuf[bidx]) << 24) \
                    | (np.int64(pbuf[bidx + 1]) << 16) \
                    | (np.int64(pbuf[bidx + 2]) << 8) \
                    | np.int64(pbuf[bidx + 3])
                win = (w32 >> (32 - nb - (q & 7))) & ((np.int64(1) << nb) - 1)
                ent = np.int64(sub[node_base[node] + win])
                q += nb
                sub_steps += 1
            out[oi] = ent >> 8
            oi += 1
            bp += ent & _I8
        if bp > ends[j]:
            exhausted = True
    return out, exhausted, sub_steps


def _k_gap_sync_tiered(pbuf, ch_start, ch_end, lane_base, S,
                       l1, sub, node_base, node_bits, k1):
    mask1 = np.int64((1 << k1) - 1)
    lim = pbuf.size - 4
    n_ch = ch_start.size
    n_lanes = lane_base[lane_base.size - 1]
    gap_off = np.empty(n_lanes, np.int64)
    gap_cnt = np.empty(n_lanes, np.int64)
    ch_n = np.empty(n_ch, np.int64)
    ch_endpos = np.empty(n_ch, np.int64)
    for c in range(n_ch):
        bp = ch_start[c]
        end = ch_end[c]
        cur = lane_base[c]
        last = lane_base[c + 1]
        nb_mark = bp + S
        n = np.int64(0)
        gap_off[cur] = bp
        gap_cnt[cur] = 0
        cur += 1
        while bp < end:
            while cur < last and bp >= nb_mark:
                gap_off[cur] = bp
                gap_cnt[cur] = n
                cur += 1
                nb_mark += S
            bidx = bp >> 3
            if bidx > lim:
                bidx = lim
            w32 = (np.int64(pbuf[bidx]) << 24) \
                | (np.int64(pbuf[bidx + 1]) << 16) \
                | (np.int64(pbuf[bidx + 2]) << 8) \
                | np.int64(pbuf[bidx + 3])
            win = (w32 >> (32 - k1 - (bp & 7))) & mask1
            ent = np.int64(l1[win])
            q = bp + k1
            while (ent & _I8) == 0:
                node = ent >> 8
                nb = np.int64(node_bits[node])
                bidx = q >> 3
                if bidx > lim:
                    bidx = lim
                w32 = (np.int64(pbuf[bidx]) << 24) \
                    | (np.int64(pbuf[bidx + 1]) << 16) \
                    | (np.int64(pbuf[bidx + 2]) << 8) \
                    | np.int64(pbuf[bidx + 3])
                win = (w32 >> (32 - nb - (q & 7))) \
                    & ((np.int64(1) << nb) - 1)
                ent = np.int64(sub[node_base[node] + win])
                q += nb
            bp += ent & _I8
            n += 1
        while cur < last:
            gap_off[cur] = bp
            gap_cnt[cur] = n
            cur += 1
        ch_n[c] = n
        ch_endpos[c] = bp
    return gap_off, gap_cnt, ch_n, ch_endpos


def _k_gap_decode_tiered(pbuf, bit_off, out_off, out_end,
                         l1, sub, node_base, node_bits, k1, n_out):
    mask1 = np.int64((1 << k1) - 1)
    lim = pbuf.size - 4
    out = np.empty(n_out, np.int64)
    for j in range(bit_off.size):
        bp = bit_off[j]
        oi = out_off[j]
        oe = out_end[j]
        while oi < oe:
            bidx = bp >> 3
            if bidx > lim:
                bidx = lim
            w32 = (np.int64(pbuf[bidx]) << 24) \
                | (np.int64(pbuf[bidx + 1]) << 16) \
                | (np.int64(pbuf[bidx + 2]) << 8) \
                | np.int64(pbuf[bidx + 3])
            win = (w32 >> (32 - k1 - (bp & 7))) & mask1
            ent = np.int64(l1[win])
            q = bp + k1
            while (ent & _I8) == 0:
                node = ent >> 8
                nb = np.int64(node_bits[node])
                bidx = q >> 3
                if bidx > lim:
                    bidx = lim
                w32 = (np.int64(pbuf[bidx]) << 24) \
                    | (np.int64(pbuf[bidx + 1]) << 16) \
                    | (np.int64(pbuf[bidx + 2]) << 8) \
                    | np.int64(pbuf[bidx + 3])
                win = (w32 >> (32 - nb - (q & 7))) \
                    & ((np.int64(1) << nb) - 1)
                ent = np.int64(sub[node_base[node] + win])
                q += nb
            out[oi] = ent >> 8
            oi += 1
            bp += ent & _I8
    return out


_PURE = {
    "histogram": _k_histogram,
    "scan_pack_cells": _k_scan_pack_cells,
    "decode_lanes": _k_decode_lanes,
    "decode_lanes_tiered": _k_decode_lanes_tiered,
    "gap_sync_tiered": _k_gap_sync_tiered,
    "gap_decode_tiered": _k_gap_decode_tiered,
}

_LOCK = threading.Lock()
_TRIED = False
_COMPILED: dict | None = None
_REASON = ""


def numba_status() -> tuple[bool, str]:
    """``(compiled_ok, reason)`` — one import/compile attempt per
    process, cached (the ``gap_native.kernel()`` pattern).  ``reason``
    is ``"numba_missing"`` or ``"compile_error"`` on failure."""
    global _TRIED, _COMPILED, _REASON
    if _TRIED:
        return _COMPILED is not None, _REASON
    with _LOCK:
        if _TRIED:
            return _COMPILED is not None, _REASON
        try:
            import numba
        except ImportError:
            _REASON = "numba_missing"
        else:
            try:
                jit = numba.njit(cache=True)
                _COMPILED = {n: jit(f) for n, f in _PURE.items()}
            except Exception:  # pragma: no cover - needs broken numba
                _COMPILED = None
                _REASON = "compile_error"
        _TRIED = True
    return _COMPILED is not None, _REASON


def _reset_for_tests() -> None:
    """Forget the cached import/compile attempt (contract tests use this
    to simulate a numba import failure via an import hook)."""
    global _TRIED, _COMPILED, _REASON
    with _LOCK:
        _TRIED = False
        _COMPILED = None
        _REASON = ""


class NjitBackend(KernelBackend):
    """Compiled CPU kernels; pure-Python simulator under
    ``REPRO_NJIT_SIM=1``; counted numpy fallback otherwise."""

    name = "njit"

    def availability(self) -> tuple[bool, str]:
        if os.environ.get(DISABLE_ENV):
            return False, "disabled"
        ok, reason = numba_status()
        if ok or os.environ.get(SIM_ENV):
            return True, ""
        return False, reason

    def _fns(self) -> dict:
        ok, reason = self.availability()
        if not ok:
            raise RuntimeError(f"njit backend unavailable: {reason}")
        if numba_status()[0]:
            assert _COMPILED is not None
            return _COMPILED
        return _PURE

    # --- kernel surface ----------------------------------------------------
    def histogram(self, flat: np.ndarray, num_bins: int) -> np.ndarray:
        if flat.dtype.kind not in "iu":
            raise TypeError(
                f"cannot histogram dtype {flat.dtype} (integer required)"
            )
        if flat.size == 0:
            return np.zeros(int(num_bins), np.int64)
        mn = int(flat.min())
        if mn < 0:
            raise ValueError("symbols must be non-negative")
        # bincount's minlength semantics: grow past num_bins when the
        # data demands it (numba does no bounds checks — size up front)
        nbins = max(int(num_bins), int(flat.max()) + 1)
        return self._fns()["histogram"](flat, nbins)

    def scan_pack_cells(self, p, group, n_chunks, cpc, word_bits):
        words, bits, broken, cell_lengths = self._fns()["scan_pack_cells"](
            np.ascontiguousarray(p), int(group), int(n_chunks),
            int(cpc), int(word_bits),
        )
        return words, bits, broken, cell_lengths

    def decode_lanes_pass(self, pbuf, starts, ends, nsyms, out_off, tab, k):
        out, exhausted = self._fns()["decode_lanes"](
            pbuf,
            np.ascontiguousarray(starts, np.int64),
            np.ascontiguousarray(ends, np.int64),
            np.ascontiguousarray(nsyms, np.int64),
            np.ascontiguousarray(out_off, np.int64),
            tab,
            int(k),
        )
        return out, bool(exhausted)

    @staticmethod
    def _tiered_arrays(l1, sub, node_base, node_bits):
        return (
            np.ascontiguousarray(l1, np.int32),
            np.ascontiguousarray(sub, np.int32),
            np.ascontiguousarray(node_base, np.int64),
            np.ascontiguousarray(node_bits, np.int32),
        )

    def decode_lanes_tiered_pass(self, pbuf, starts, ends, nsyms, out_off,
                                 l1, sub, node_base, node_bits, k1):
        out, exhausted, sub_steps = self._fns()["decode_lanes_tiered"](
            pbuf,
            np.ascontiguousarray(starts, np.int64),
            np.ascontiguousarray(ends, np.int64),
            np.ascontiguousarray(nsyms, np.int64),
            np.ascontiguousarray(out_off, np.int64),
            *self._tiered_arrays(l1, sub, node_base, node_bits),
            int(k1),
        )
        return out, bool(exhausted), int(sub_steps)

    def gap_sync_tiered_pass(self, pbuf, ch_start, ch_end, lane_base, S,
                             l1, sub, node_base, node_bits, k1):
        return self._fns()["gap_sync_tiered"](
            pbuf,
            np.ascontiguousarray(ch_start, np.int64),
            np.ascontiguousarray(ch_end, np.int64),
            np.ascontiguousarray(lane_base, np.int64),
            int(S),
            *self._tiered_arrays(l1, sub, node_base, node_bits),
            int(k1),
        )

    def gap_decode_tiered_pass(self, pbuf, bit_off, out_off, out_end,
                               l1, sub, node_base, node_bits, k1, n_out):
        return self._fns()["gap_decode_tiered"](
            pbuf,
            np.ascontiguousarray(bit_off, np.int64),
            np.ascontiguousarray(out_off, np.int64),
            np.ascontiguousarray(out_end, np.int64),
            *self._tiered_arrays(l1, sub, node_base, node_bits),
            int(k1),
            int(n_out),
        )
