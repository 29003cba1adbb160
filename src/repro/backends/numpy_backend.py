"""The always-available NumPy reference backend.

Two kinds of kernel live here:

- :func:`fast_histogram` and :meth:`NumpyBackend.scan_pack_cells` are
  the *production* NumPy hot loops (the histogram moved here from
  ``core/encoder.py``; the cell fold + scatter delegates to
  :mod:`repro.core.scan_pack`'s vectorized machinery).
- the decode passes are deliberately *serial* ports of
  ``gap_native.py``'s C kernels — the executable definition of the
  kernel contract, in the same spirit as
  :func:`repro.decoder.gap_array.reference_gap_array`.  Production
  NumPy decode keeps its vectorized speculative paths in
  ``huffman/decoder.py`` / ``decoder/gap_array.py``; these reference
  walks exist so every backend column of the differential matrix has
  the same five-kernel surface to diff against.
"""

from __future__ import annotations

import numpy as np

from repro.backends import KernelBackend

__all__ = ["NumpyBackend", "fast_histogram"]


def fast_histogram(data: np.ndarray, n_symbols: int) -> np.ndarray:
    """``np.bincount`` with a halved input for byte alphabets.

    ``bincount`` casts its input to int64 before counting; viewing a
    contiguous uint8 stream as uint16 *pairs* halves both the cast and
    the count loop, and the 64 Ki pair counts fold back to exact
    per-symbol counts (low-byte sums + high-byte sums — endian-agnostic
    because the fold is symmetric).
    """
    if data.dtype == np.uint8 and data.flags.c_contiguous \
            and data.size >= (1 << 16):
        even = data[: data.size & ~1]
        ph = np.bincount(even.view(np.uint16), minlength=1 << 16)
        ph = ph.reshape(256, 256)
        hist = ph.sum(axis=0) + ph.sum(axis=1)
        if data.size & 1:
            hist[int(data[-1])] += 1
        if hist.size > n_symbols and not hist[n_symbols:].any():
            hist = hist[:n_symbols]  # match bincount's minlength shape
        elif hist.size < n_symbols:
            hist = np.concatenate(
                [hist, np.zeros(n_symbols - hist.size, dtype=hist.dtype)]
            )
        return hist
    return np.bincount(data, minlength=n_symbols)


def _window(pbuf: np.ndarray, bp: int, k: int) -> int:
    """The C kernels' ``load_be64(buf + (bp >> 3)) >> (64 - k - (bp & 7))``
    on the >= 8-byte-padded buffer, in exact Python integers."""
    byte = bp >> 3
    w = int.from_bytes(pbuf[byte:byte + 8].tobytes(), "big")
    return w >> (64 - k - (bp & 7))


def _tiered_step(
    pbuf, bp: int, l1, sub, node_base, node_bits, k1: int, mask1: int
) -> tuple[int, int]:
    """One tiered-table codeword resolve starting at bit ``bp``.

    Gathers the k1-bit root window, then descends node pointers (length
    byte 0) through the flat subtable array until a packed
    ``(symbol << 8) | abs_length`` entry resolves.  Kernel backends only
    ever see *complete* tables, so a pointer is always valid here.
    Returns ``(packed_entry, n_subtable_gathers)``.
    """
    ent = int(l1[_window(pbuf, bp, k1) & mask1])
    q = bp + k1
    steps = 0
    while (ent & 0xFF) == 0:
        node = ent >> 8
        nb = int(node_bits[node])
        ent = int(sub[
            int(node_base[node]) + (_window(pbuf, q, nb) & ((1 << nb) - 1))
        ])
        q += nb
        steps += 1
    return ent, steps


class NumpyBackend(KernelBackend):
    """Reference backend: always available, defines the semantics."""

    name = "numpy"

    def availability(self) -> tuple[bool, str]:
        return True, ""

    def histogram(self, flat: np.ndarray, num_bins: int) -> np.ndarray:
        return fast_histogram(flat, num_bins)

    def scan_pack_cells(self, p, group, n_chunks, cpc, word_bits):
        """Fold ``group`` packed words per cell, zero broken cells, and
        scatter into the dense grid — the vectorized pairwise tree from
        :mod:`repro.core.scan_pack`, returned as raw arrays."""
        import importlib

        # repro.core re-exports a scan_pack *function*; import the module
        sp = importlib.import_module("repro.core.scan_pack")

        g = int(group)
        while g > 1:
            p2 = p.reshape(-1, 2)
            p = sp._packed_merge(p2[:, 0], p2[:, 1])
            g >>= 1
        cell_lengths = (p & sp._LEN_MASK).astype(np.int64)
        broken = cell_lengths > word_bits
        values = p >> sp._LEN_SHIFT
        if broken.any():
            values = np.where(broken, np.uint64(0), values)
            eff = np.where(broken, 0, cell_lengths)
        else:
            eff = cell_lengths
        words, bits = sp._scatter_pack(
            values, eff, n_chunks, cpc, word_bits
        )
        return words, bits, broken, cell_lengths

    def decode_lanes_pass(self, pbuf, starts, ends, nsyms, out_off, tab, k):
        """Serial LUT walk over every lane; ``exhausted`` reproduces the
        batch decoder's post-decode ``pos > lane_end`` check."""
        k = int(k)
        mask = (1 << k) - 1
        out = np.empty(int(np.sum(nsyms)), np.int64)
        exhausted = False
        for j in range(starts.shape[0]):
            bp = int(starts[j])
            oi = int(out_off[j])
            for _ in range(int(nsyms[j])):
                ent = int(tab[_window(pbuf, bp, k) & mask])
                out[oi] = ent >> 8
                oi += 1
                bp += ent & 0xFF
            if bp > int(ends[j]):
                exhausted = True
        return out, exhausted

    def decode_lanes_tiered_pass(self, pbuf, starts, ends, nsyms, out_off,
                                 l1, sub, node_base, node_bits, k1):
        """Serial tiered LUT walk over every lane; same exhaustion
        contract as :meth:`decode_lanes_pass`, plus the subtable-gather
        count for the observability counters."""
        k1 = int(k1)
        mask1 = (1 << k1) - 1
        out = np.empty(int(np.sum(nsyms)), np.int64)
        exhausted = False
        sub_steps = 0
        for j in range(starts.shape[0]):
            bp = int(starts[j])
            oi = int(out_off[j])
            for _ in range(int(nsyms[j])):
                ent, st = _tiered_step(
                    pbuf, bp, l1, sub, node_base, node_bits, k1, mask1
                )
                sub_steps += st
                out[oi] = ent >> 8
                oi += 1
                bp += ent & 0xFF
            if bp > int(ends[j]):
                exhausted = True
        return out, exhausted, sub_steps

    def gap_sync_tiered_pass(self, pbuf, ch_start, ch_end, lane_base, S,
                             l1, sub, node_base, node_bits, k1):
        """Tiered twin of :meth:`gap_sync_pass`: identical boundary
        recording, with the flat gather swapped for the tiered resolve."""
        k1 = int(k1)
        S = int(S)
        mask1 = (1 << k1) - 1
        n_ch = ch_start.shape[0]
        n_lanes = int(lane_base[-1])
        gap_off = np.empty(n_lanes, np.int64)
        gap_cnt = np.empty(n_lanes, np.int64)
        ch_n = np.empty(n_ch, np.int64)
        ch_endpos = np.empty(n_ch, np.int64)
        for c in range(n_ch):
            bp = int(ch_start[c])
            end = int(ch_end[c])
            cur = int(lane_base[c])
            last = int(lane_base[c + 1])
            nb = bp + S
            n = 0
            gap_off[cur] = bp
            gap_cnt[cur] = 0
            cur += 1
            while bp < end:
                while cur < last and bp >= nb:
                    gap_off[cur] = bp
                    gap_cnt[cur] = n
                    cur += 1
                    nb += S
                ent, _st = _tiered_step(
                    pbuf, bp, l1, sub, node_base, node_bits, k1, mask1
                )
                bp += ent & 0xFF
                n += 1
            while cur < last:
                gap_off[cur] = bp
                gap_cnt[cur] = n
                cur += 1
            ch_n[c] = n
            ch_endpos[c] = bp
        return gap_off, gap_cnt, ch_n, ch_endpos

    def gap_decode_tiered_pass(self, pbuf, bit_off, out_off, out_end,
                               l1, sub, node_base, node_bits, k1, n_out):
        """Tiered twin of :meth:`gap_decode_pass`."""
        k1 = int(k1)
        mask1 = (1 << k1) - 1
        out = np.empty(int(n_out), np.int64)
        for j in range(bit_off.shape[0]):
            bp = int(bit_off[j])
            oi = int(out_off[j])
            oe = int(out_end[j])
            while oi < oe:
                ent, _st = _tiered_step(
                    pbuf, bp, l1, sub, node_base, node_bits, k1, mask1
                )
                out[oi] = ent >> 8
                oi += 1
                bp += ent & 0xFF
        return out
