"""Gap-array fully-parallel decoder: two-pass sync-point discovery plus
lock-step subchunk decode (Rivera et al., "Optimizing Huffman Decoding
for Error-Bounded Lossy Compression on GPUs").

``decode_lanes`` walks every chunk serially: the number of sequential
steps is O(symbols per chunk).  The gap-array scheme splits each chunk's
bitstream into fixed-width *subchunks* of ``subchunk_bits`` bits and
decodes in two passes:

- **pass 1 — sync** (``decode.gap.sync``): discover, for every subchunk
  boundary, the first codeword-aligned bit offset at-or-after it and the
  number of symbols emitted before it.  The pair per boundary is the
  *gap array*: with it, every subchunk knows its entry state and its
  output range, so nothing downstream is sequential.
- **pass 2 — decode** (``decode.gap.decode``): decode all subchunks of
  all chunks lock-step with the table-driven window gather; sequential
  depth drops to O(symbols per subchunk) with thousands of concurrent
  lanes.

Two backends share this contract (the registry pattern from ROADMAP's
"compiled-kernel backend" item — NumPy is the reference semantics, the
compiled path is optional):

- ``"numpy"`` — the paper-shaped reference.  Pass 1 is *speculative*
  self-synchronization (the idiom of :mod:`repro.decoder.self_sync`):
  every lane decodes from its unaligned boundary with a triple-symbol
  16-bit-window LUT while recording its position trace; a lane's true
  entry state is found by intersecting its predecessor's trace
  *continuation* with its own trace (prefix codes self-synchronize, so
  the speculative chain merges onto the true chain within a few
  codewords).  Chunks whose speculative decode fails validation fall
  back to :func:`repro.huffman.decoder.decode_lanes`.
- ``"native"`` — :mod:`repro.decoder.gap_native`, a runtime-compiled C
  kernel with *exact* pass-1 discovery (an interleaved length walk).
  It takes one root+subtable table format, so flat and tiered (deep)
  books share it.  Preferred by ``backend="auto"`` when the toolchain is
  present.

Both backends produce symbols byte-identical to ``decode_lanes`` and
the same :class:`GapArray` (pinned by golden vectors and property
tests).  The gap array follows the *decode chain* semantics of the
table: on a corrupt stream the recorded offsets stay on the chain a
serial table walk would follow, so gap output equals lane output even
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.decoder import gap_native
from repro.huffman.cache import _LruCache, codebook_digest
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import (
    _HOST_TABLE_BITS,
    DecodeTable,
    TieredDecodeTable,
    _window_words,
    build_decode_table,
    build_tiered_decode_table,
    decode_lanes,
)
from repro.obs import metrics as _metrics
from repro.obs import span as _span

__all__ = [
    "GapArray",
    "GapDecodeResult",
    "gap_auto_ready",
    "gap_decode_lanes",
    "gap_supported",
    "reference_gap_array",
    "subchunk_lane_counts",
    "default_subchunk_bits",
]

#: continuation rows the speculative fixup scans for the merge point;
#: self-sync merges geometrically (~32% at row 0), so 24 rows leave a
#: ~0.06% unsynced-lane tail that the per-chunk fallback absorbs.
_MAXR = 24

#: numpy backend works on int32 bit positions; streams at/over this many
#: bits route to the native backend or to ``decode_lanes``.
_INT32_BIT_LIMIT = (1 << 31) - (1 << 16)

#: soft cap on numpy speculative-stage memory per slab (bytes)
_SLAB_BYTES = 96 << 20

#: ``strategy="auto"`` stays on ``decode_lanes`` below this many symbols
AUTO_MIN_SYMBOLS = 1 << 12


# --------------------------------------------------------------------- types


@dataclass(frozen=True, eq=False)
class GapArray:
    """Per-subchunk sync points: the side channel pass 2 decodes from.

    ``lane_base[c]`` is the first lane (subchunk) of chunk ``c``
    (``n_chunks + 1`` entries).  For lane ``i``, ``bit_offsets[i]`` is
    the first codeword-aligned absolute bit offset at-or-after the
    subchunk boundary and ``symbol_counts[i]`` the number of symbols the
    chunk emits before that offset.
    """

    subchunk_bits: int
    lane_base: np.ndarray
    bit_offsets: np.ndarray
    symbol_counts: np.ndarray

    @property
    def n_chunks(self) -> int:
        return self.lane_base.size - 1

    @property
    def n_subchunks(self) -> int:
        return self.bit_offsets.size

    @property
    def n_sync_points(self) -> int:
        """Boundaries that required discovery (non-trivial entries)."""
        return self.n_subchunks - self.n_chunks

    def equal(self, other: "GapArray") -> bool:
        return (
            self.subchunk_bits == other.subchunk_bits
            and np.array_equal(self.lane_base, other.lane_base)
            and np.array_equal(self.bit_offsets, other.bit_offsets)
            and np.array_equal(self.symbol_counts, other.symbol_counts)
        )

    def to_payload(self) -> dict:
        """JSON-able form (golden side-channel vectors)."""
        return {
            "subchunk_bits": int(self.subchunk_bits),
            "lane_base": [int(v) for v in self.lane_base],
            "bit_offsets": [int(v) for v in self.bit_offsets],
            "symbol_counts": [int(v) for v in self.symbol_counts],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GapArray":
        return cls(
            subchunk_bits=int(payload["subchunk_bits"]),
            lane_base=np.asarray(payload["lane_base"], dtype=np.int64),
            bit_offsets=np.asarray(payload["bit_offsets"], dtype=np.int64),
            symbol_counts=np.asarray(payload["symbol_counts"], dtype=np.int64),
        )


@dataclass(frozen=True)
class GapDecodeResult:
    """Symbols plus the gap array that produced them.

    ``backend`` is ``"native"``, ``"njit"``, ``"numpy"``, or ``"lanes"``
    (the book was outside gap-table limits and the whole call fell back,
    in which case ``gap`` is ``None``).  ``chunk_fallbacks`` counts
    chunks the numpy backend re-decoded through ``decode_lanes`` after
    validation.
    """

    symbols: np.ndarray
    gap: Optional[GapArray]
    backend: str
    chunk_fallbacks: int = 0


# ------------------------------------------------------------------- helpers


def subchunk_lane_counts(ch_bits: np.ndarray, subchunk_bits: int) -> np.ndarray:
    """Subchunks per chunk: ``max(ceil(bits / S), 1)`` (empty chunks
    still own one lane so the gap array addresses every chunk)."""
    S = int(subchunk_bits)
    if S < 16:
        raise ValueError("subchunk_bits must be >= 16")
    return np.maximum(-(-ch_bits.astype(np.int64) // S), 1)


def default_subchunk_bits(total_bits: int, backend: str) -> int:
    if backend == "numpy":
        # balance lane count (vector width) against rows (sequential
        # steps): aim near 8k lanes, clamped to a sane subchunk range
        return max(96, min(4096, (int(total_bits) // 8192 + 7) & ~7))
    return 1024


def gap_supported(
    book: CanonicalCodebook, table: DecodeTable | TieredDecodeTable
) -> tuple[bool, str]:
    """Whether the gap machinery can decode this book at all.

    Requires a *complete* table: every reachable index resolves to a
    real codeword without First/Entry fallback.  A complete
    :class:`TieredDecodeTable` qualifies regardless of ``max_length`` —
    tiered tables are exactly how W=32 and genomics-scale books stay on
    the gap path instead of degrading to ``decode_lanes``.
    """
    if isinstance(table, TieredDecodeTable):
        if not table.complete:
            return False, "incomplete_table"
        if int(book.n_symbols) > gap_native.MAX_NATIVE_SYMBOL:
            return False, "alphabet_too_large"
        return True, ""
    if int(book.max_length) > int(table.k):
        return False, "max_length_exceeds_table"
    if not bool((table.length > 0).all()):
        return False, "incomplete_table"
    if int(book.n_symbols) > gap_native.MAX_NATIVE_SYMBOL:
        return False, "alphabet_too_large"
    return True, ""


#: LRU of per-backend gap tables keyed by (digest, kind, k, ...)
_GAP_TABLES = _LruCache(16, name="gap_table")


def _native_table(book: CanonicalCodebook, table: DecodeTable) -> np.ndarray:
    """Packed ``(symbol << 8) | length`` entries for the C kernels."""

    def build() -> np.ndarray:
        return (
            (table.symbol.astype(np.uint32) << np.uint32(8))
            | table.length.astype(np.uint32)
        ).copy()

    key = (codebook_digest(book), "native", int(table.k))
    return _GAP_TABLES.get_or_build(key, build)


def _kernel_table(
    book: CanonicalCodebook, table: DecodeTable | TieredDecodeTable
) -> gap_native.KernelTable:
    """The C kernel's root+subtable view of either table kind, checked
    once per book and cached: a flat table is the root-only case."""
    if isinstance(table, TieredDecodeTable):
        key = (codebook_digest(book), "kernel", int(table.k1),
               table.n_nodes, int(table.sub.size))
        return _GAP_TABLES.get_or_build(key, lambda: gap_native.kernel_table(
            table.l1, table.k1, table.sub, table.node_base, table.node_bits
        ))
    key = (codebook_digest(book), "kernel", int(table.k))
    return _GAP_TABLES.get_or_build(key, lambda: gap_native.kernel_table(
        _native_table(book, table), table.k
    ))


def _triple_table(
    book: CanonicalCodebook, table: DecodeTable
) -> tuple[np.ndarray, np.ndarray]:
    """16-bit-window LUT emitting up to 3 codewords per step.

    meta int32: bits 0..4 ``l1``, 5..9 ``l12``, 10..15 ``adv``,
    16..17 ``cnt``; syms int32: ``s1 | s2 << 10 | s3 << 20`` (alphabet
    <= 1024).  When fewer than 3 codewords fit the window, trailing
    symbols repeat the last valid one and ``l12``/``adv`` collapse so
    position arithmetic stays exact.
    """

    def build() -> tuple[np.ndarray, np.ndarray]:
        k = table.k
        lt = table.length.astype(np.int32)
        st = table.symbol.astype(np.int32)
        w = np.arange(1 << 16, dtype=np.int32)
        l1 = lt.take(w >> (16 - k))
        s1 = st.take(w >> (16 - k))
        w2 = (w << l1) & 0xFFFF
        l2 = lt.take(w2 >> (16 - k))
        s2 = st.take(w2 >> (16 - k))
        w3 = (w2 << l2) & 0xFFFF
        l3 = lt.take(w3 >> (16 - k))
        s3 = st.take(w3 >> (16 - k))
        fit2 = (l1 + l2) <= 16
        fit3 = fit2 & ((l1 + l2 + l3) <= 16)
        cnt = (1 + fit2 + fit3).astype(np.int32)
        l12 = np.where(fit2, l1 + l2, l1)
        adv = np.where(fit3, l1 + l2 + l3, l12)
        s2 = np.where(fit2, s2, s1)
        s3 = np.where(fit3, s3, s2)
        meta = (l1 | (l12 << 5) | (adv << 10) | (cnt << 16)).astype(np.int32)
        syms = (s1 | (s2 << 10) | (s3 << 20)).astype(np.int32)
        return meta, syms

    key = (codebook_digest(book), "triple", int(table.k))
    return _GAP_TABLES.get_or_build(key, build)


def _pad_buffer(buffer: np.ndarray, pad: int = 8) -> np.ndarray:
    """Copy with ``pad`` spare bytes so window loads never run off (the
    C passes need :attr:`gap_native.KernelTable.pad_bytes`)."""
    out = np.zeros(buffer.size + pad, np.uint8)
    out[: buffer.size] = buffer
    return out


def _lane_layout(
    starts: np.ndarray, ends: np.ndarray, S: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_sub per chunk, lane_base) for subchunk width ``S``."""
    n_sub = subchunk_lane_counts(ends - starts, S)
    lane_base = np.zeros(n_sub.size + 1, np.int64)
    np.cumsum(n_sub, out=lane_base[1:])
    return n_sub, lane_base


def _output_ranges(
    gap_cnt: np.ndarray,
    n_sub: np.ndarray,
    lane_base: np.ndarray,
    nsyms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane disjoint output ranges from the gap symbol counts.

    Counts are clamped to the chunk's symbol budget so a corrupt stream
    (walk count != container count) still partitions the output exactly
    the way ``decode_lanes`` fills it.
    """
    sym_base = np.zeros(nsyms.size + 1, np.int64)
    np.cumsum(nsyms, out=sym_base[1:])
    cnt = np.minimum(gap_cnt, np.repeat(nsyms, n_sub))
    out_off = np.repeat(sym_base[:-1], n_sub) + cnt
    out_end = np.empty_like(out_off)
    out_end[:-1] = out_off[1:]
    out_end[lane_base[1:] - 1] = sym_base[1:]
    return out_off, out_end, sym_base


# ------------------------------------------------------------ reference walk


def reference_gap_array(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    book: CanonicalCodebook,
    subchunk_bits: int,
    table: DecodeTable | TieredDecodeTable | None = None,
) -> GapArray:
    """Exact gap array by per-chunk serial walk: the NumPy reference
    backend's sync pass over the root+subtable table.

    The executable definition every gap backend is pinned against
    (golden vectors, property tests).  Pure-Python per symbol —
    test-sized inputs only.
    """
    # function-local import: backends/__init__ registers backends at
    # import time, so a module-level import here would be cyclic
    from repro.backends.numpy_backend import NumpyBackend

    if table is None:
        table = (
            build_tiered_decode_table(book)
            if int(book.max_length) > _HOST_TABLE_BITS
            else build_decode_table(book, _HOST_TABLE_BITS)
        )
    ok, why = gap_supported(book, table)
    if not ok:
        raise ValueError(f"gap decode unsupported for this book: {why}")
    S = int(subchunk_bits)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    _n_sub, lane_base = _lane_layout(starts, ends, S)
    kt = _kernel_table(book, table)
    offs, cnts, _n, _end = NumpyBackend().gap_sync_tiered_pass(
        _pad_buffer(np.asarray(buffer, dtype=np.uint8), kt.pad_bytes),
        starts, ends, lane_base, S,
        kt.l1, kt.sub, kt.node_base, kt.node_bits, kt.k1,
    )
    return GapArray(S, lane_base, offs, cnts)


# ----------------------------------------------- native / njit kernel passes


class _RegistryPasses:
    """A registry backend's tiered pass pair behind the native kernel's
    call shape (the flat table is the zero-subtable case there too)."""

    def __init__(self, bk) -> None:
        self._bk = bk

    def sync_pass(self, pbuf, starts, ends, lane_base, S, t):
        return (*self._bk.gap_sync_tiered_pass(
            pbuf, starts, ends, lane_base, S,
            t.l1, t.sub, t.node_base, t.node_bits, t.k1,
        ), 0)

    def decode_pass(self, pbuf, bit_off, out_off, out_end, t, n_out):
        return self._bk.gap_decode_tiered_pass(
            pbuf, bit_off, out_off, out_end,
            t.l1, t.sub, t.node_base, t.node_bits, t.k1, n_out,
        )


def _kernel_gap_decode(
    passes,
    label: str,
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable | TieredDecodeTable,
    S: int,
) -> tuple[GapDecodeResult, int]:
    """Two exact kernel passes over one root+subtable table — the
    compiled C kernel, or a registry backend through
    :class:`_RegistryPasses`.  Returns the result and the number of
    subtable gathers pass 1 took."""
    kt = _kernel_table(book, table)
    tier = "tiered" if isinstance(table, TieredDecodeTable) else "flat"
    n_sub, lane_base = _lane_layout(starts, ends, S)
    pbuf = _pad_buffer(buffer, kt.pad_bytes)
    with _span(
        "decode.gap.sync",
        backend=label,
        table_tier=tier,
        subchunk_bits=S,
        lanes=int(lane_base[-1]),
        chunks=int(starts.size),
    ):
        gap_off, gap_cnt, ch_n, ch_endpos, gathers = passes.sync_pass(
            pbuf, starts, ends, lane_base, S, kt
        )
        # replicate decode_lanes' exhaustion semantics: a chunk whose
        # chain yields fewer codewords than the container claims, or
        # exactly as many but with the last one straddling the chunk
        # end, would leave a lane cursor past its end there
        exhausted = (ch_n < nsyms) | ((ch_n == nsyms) & (ch_endpos > ends))
        if bool(exhausted.any()):
            raise ValueError("bitstream exhausted before all symbols decoded")
    with _span("decode.gap.decode", backend=label, table_tier=tier,
               lanes=int(lane_base[-1])):
        out_off, out_end, sym_base = _output_ranges(
            gap_cnt, n_sub, lane_base, nsyms
        )
        symbols = passes.decode_pass(
            pbuf, gap_off, out_off, out_end, kt, int(sym_base[-1])
        )
    gap = GapArray(S, lane_base, gap_off, gap_cnt)
    return GapDecodeResult(symbols, gap, label), int(gathers)


# ------------------------------------------------------------- numpy backend


def _speculative_trace(
    W: np.ndarray,
    b: np.ndarray,
    e32: np.ndarray,
    meta_t: np.ndarray,
    syms_t: np.ndarray,
    Tcap: int,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """All lanes decode speculatively from their boundary, recording a
    per-step position trace (``phist``), packed symbols (``stage``) and
    emit counts (``cstage``).  After every lane crossed its own end the
    loop runs ``_MAXR`` extra rows so each trace carries the
    *continuation* its successor lane merges against.
    """
    L = b.size
    p = b.astype(np.int32)
    idx = np.empty(L, np.int32)
    win = np.empty(L, np.int32)
    mt = np.empty(L, np.int32)
    phist = np.empty((Tcap, L), np.int32)
    # +1 trash row at the end for clipped guard-splice scatters
    stage = np.empty((_MAXR + Tcap + 1, L), np.int32)
    cstage = np.zeros((_MAXR + Tcap + 1, L), np.int8)
    mstage = stage[_MAXR:]
    ccstage = cstage[_MAXR:]
    sb16 = np.int32(16)
    msk = np.int32(0xFFFF)
    t = 0
    tail_rows = 0
    while True:
        phist[t] = p
        np.right_shift(p, 3, out=idx)
        W.take(idx, mode="clip", out=win)
        np.bitwise_and(p, 7, out=idx)
        np.subtract(sb16, idx, out=idx)
        np.right_shift(win, idx, out=win)
        np.bitwise_and(win, msk, out=win)
        meta_t.take(win, out=mt)
        syms_t.take(win, out=mstage[t])
        np.right_shift(mt, 16, out=win)  # win := cnt
        ccstage[t] = win
        np.right_shift(mt, 10, out=mt)
        np.bitwise_and(mt, 63, out=mt)  # mt := adv
        np.add(p, mt, out=p)
        t += 1
        if tail_rows == 0:
            if t % 8 == 0 and not (p < e32).any():
                tail_rows = _MAXR
        else:
            tail_rows -= 1
            if tail_rows == 0:
                break
        if t >= Tcap:
            raise RuntimeError("gap stage overflow")
    return t, phist, stage, cstage


def _windows_at(W: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """16-bit windows of the stream at the given bit positions."""
    wv = W.take(pos >> 3, mode="clip")
    return (wv >> (np.int32(16) - (pos & 7))) & np.int32(0xFFFF)


def _numpy_slab(
    buffer: np.ndarray,
    W: np.ndarray,
    ch_start: np.ndarray,
    ch_end: np.ndarray,
    ch_syms: np.ndarray,
    S: int,
    meta_t: np.ndarray,
    syms_t: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Speculative gap decode of one chunk slab.

    Returns ``(symbols, gap_offsets, gap_counts, n_fallback_chunks)``.
    Pass 1 (``decode.gap.sync``): speculative trace plus the fixup that
    intersects each lane's trace with its predecessor's continuation to
    find the merge row — the sync points.  Pass 2
    (``decode.gap.decode``): boundary trims, continuation splice into
    guard rows, lane-major slot-mask assembly, and per-chunk
    symbol-count validation that sends failed chunks to
    ``decode_lanes`` (their gap entries to the reference walk).
    """
    n_ch = ch_start.size
    total = int(ch_syms.sum())
    n_sub_per, lane_base = _lane_layout(ch_start, ch_end, S)
    L = int(lane_base[-1])
    base = np.repeat(ch_start, n_sub_per)
    firsts = np.repeat(lane_base[:-1], n_sub_per)
    off = (np.arange(L) - firsts) * S
    b = (base + off).astype(np.int64)
    e32 = np.minimum(b + S, np.repeat(ch_end, n_sub_per)).astype(np.int32)
    aligned = off == 0
    Tcap = S + 64

    with _span(
        "decode.gap.sync",
        backend="numpy",
        subchunk_bits=S,
        lanes=L,
        chunks=int(n_ch),
    ):
        T, phist, stage, cstage = _speculative_trace(
            W, b, e32, meta_t, syms_t, Tcap
        )
        PH = phist[:T]
        ccstage = cstage[_MAXR:]

        # crossing row: first row with position >= lane end
        ge = PH >= e32[None, :]
        cross = ge.argmax(axis=0)
        lanes_i = np.arange(L)

        # ---- fixup: merge each lane's trace with its predecessor's
        # continuation (positions can match a row start or an intra-row
        # codeword start)
        nal = np.flatnonzero(~aligned)
        pj = nal - 1
        crow = cross[pj].copy()
        live = np.ones(nal.size, bool)
        srow = np.zeros(nal.size, np.int32)
        soff = np.zeros(nal.size, np.int8)
        tidx = np.zeros(nal.size, np.int32)
        fix_len = np.zeros(nal.size, np.int32)
        for r in range(_MAXR):
            v = PH[np.minimum(crow, T - 1), pj]
            ti = tidx
            for _ in range(4):
                bump = (
                    live
                    & (ti < T - 1)
                    & (PH[np.minimum(ti + 1, T - 1), nal] <= v)
                )
                if not bump.any():
                    break
                ti = ti + bump
            tidx = ti
            gpos = PH[np.minimum(tidx, T - 1), nal]
            gm = meta_t.take(_windows_at(W, gpos))
            gl1 = gm & 31
            gl12 = (gm >> 5) & 31
            m0 = v == gpos
            m1 = v == gpos + gl1
            m2 = v == gpos + gl12
            hit = live & (m0 | m1 | m2)
            srow[hit] = tidx[hit]
            soff[hit] = np.where(m0[hit], 0, np.where(m1[hit], 1, 2))
            fix_len[hit] = r
            live &= ~hit
            if not live.any():
                break
            crow = crow + live

        lo = np.zeros(L, np.int8)
        lo[nal] = soff
        mrow = np.full(L, -1, np.int32)
        mrow[nal] = srow

        # chain validity: a lane is on the true chain if aligned, or
        # merged with a valid predecessor whose continuation region is
        # itself past that predecessor's own merge row
        found = np.zeros(L, bool)
        found[nal] = (~live) & (cross[pj] - 1 >= np.maximum(mrow.take(pj), 0))
        valid = aligned | found
        for _ in range(int(n_sub_per.max())):
            vprev = np.empty(L, bool)
            vprev[0] = True
            vprev[1:] = valid[:-1]
            nv = aligned | (found & vprev)
            if (nv == valid).all():
                break
            valid = nv
        ch_of_lane = np.repeat(np.arange(n_ch), n_sub_per)
        bad_chunks = (
            np.unique(ch_of_lane[~valid])
            if not valid.all()
            else np.empty(0, np.int64)
        )

    with _span("decode.gap.decode", backend="numpy", lanes=L):
        # boundary emit trim at the crossing row's predecessor: that
        # row's later codewords may start at/past the lane end and
        # belong to the successor
        prow = np.maximum(cross - 1, 0)
        ppos = PH[prow, lanes_i]
        pm = meta_t.take(_windows_at(W, ppos))
        pl1 = pm & 31
        pl12 = (pm >> 5) & 31
        pcnt = pm >> 16
        pemit = (
            (ppos < e32).astype(np.int8)
            + (ppos + pl1 < e32)
            + (ppos + pl12 < e32)
        )
        pemit = np.minimum(pemit, pcnt).astype(np.int8)
        cstage[_MAXR + prow, lanes_i] = pemit
        rows = np.arange(T)[:, None]
        kill = rows > prow[None, :]
        ccstage[:T][kill] = 0

        # ---- splice the predecessor continuation rows
        # [cross-1, cross+fix) into each lane's guard rows (the straddle
        # row keeps only codewords starting at/after the boundary)
        hj = nal
        hp = pj
        hc = np.maximum(cross[hp] - 1, 0)
        hfl = fix_len + 1
        nrr = int(hfl.max()) if hfl.size else 1
        rr = np.arange(nrr)[:, None]
        src_row = np.minimum(hc[None, :] + rr, T - 1)
        use = rr < hfl[None, :]
        spos = PH[src_row, hp[None, :]]
        sm = meta_t.take(_windows_at(W, spos))
        scnt = (sm >> 16).astype(np.int8)
        ssym = syms_t.take(_windows_at(W, spos))
        # trim guard emits against the successor's own end e_j: when the
        # merge lies beyond e_j (tiny tail subchunks) the continuation
        # rows overshoot lane j's range and must only count starts < e_j
        sl1 = sm & 31
        sl12 = (sm >> 5) & 31
        ej = e32.take(hj)[None, :]
        semit = (
            (spos < ej).astype(np.int8)
            + (spos + sl1 < ej)
            + (spos + sl12 < ej)
        )
        semit = np.minimum(semit, scnt)
        semit[~use] = 0
        gr = rr + (_MAXR - hfl[None, :])  # top-aligned guard rows
        gr = np.where(use, gr, _MAXR + Tcap)  # unused rows -> trash row
        stage[gr, hj[None, :]] = ssym
        cstage[gr, hj[None, :]] = semit
        # guard straddle row: drop slots still owned by the predecessor
        gpos0 = PH[hc, hp]
        gm0 = meta_t.take(_windows_at(W, gpos0))
        g_l1 = gm0 & 31
        g_l12 = (gm0 >> 5) & 31
        g_adv = (gm0 >> 10) & 63
        g_cnt = (gm0 >> 16).astype(np.int8)
        pe = e32.take(hp)
        gtrim = (
            (gpos0 < pe).astype(np.int8)
            + (gpos0 + g_l1 < pe)
            + (gpos0 + g_l12 < pe)
        )
        glo = np.minimum(gtrim, g_cnt)
        # if the straddle row is the predecessor's own merge row, its
        # pre-merge slots are dead too
        at_pred_merge = hc == mrow.take(hp)
        glo = np.maximum(glo, np.where(at_pred_merge, lo.take(hp), 0))
        grow = np.full(L, -1, np.int32)
        grow[nal] = _MAXR - hfl
        glo_all = np.zeros(L, np.int8)
        glo_all[nal] = glo

        # gap offsets: the first chain codeword start at-or-after each
        # boundary, read off the straddle row (slot ``gtrim``; slot 3
        # means the next continuation row's position)
        gap_off = b.copy()
        cand = np.stack([np.zeros_like(g_l1), g_l1, g_l12, g_adv])
        gap_off[nal] = (
            gpos0 + cand[np.minimum(gtrim, 3), np.arange(nal.size)]
        ).astype(np.int64)

        # invalidate pre-merge speculative rows of non-aligned lanes
        ccstage_sub = cstage[_MAXR : _MAXR + T]
        tmp = ccstage_sub[:, nal]
        tmp[np.arange(T)[:, None] < srow[None, :]] = 0
        ccstage_sub[:, nal] = tmp

        # ---- assembly: lane-major boolean slot-mask gather
        Rg = _MAXR
        ST = np.ascontiguousarray(stage[: Rg + T].T)  # (L, Rg+T)
        CT = np.ascontiguousarray(cstage[: Rg + T].T)  # (L, Rg+T) int8
        inter = np.empty((L, Rg + T, 3), np.int32)
        np.bitwise_and(ST, np.int32(1023), out=inter[:, :, 0])
        v = np.right_shift(ST, np.int32(10))
        np.bitwise_and(v, np.int32(1023), out=inter[:, :, 1])
        np.right_shift(ST, np.int32(20), out=inter[:, :, 2])
        slot = np.arange(3, dtype=np.int8)
        mask = slot[None, None, :] < CT[:, :, None]
        rowg = np.arange(Rg + T, dtype=np.int32)
        atm = rowg[None, :] == (Rg + mrow)[:, None]
        lowmask = slot[None, None, :] >= lo[:, None, None]
        mask &= ~atm[:, :, None] | lowmask
        atg = rowg[None, :] == grow[:, None]
        glowmask = slot[None, None, :] >= glo_all[:, None, None]
        mask &= ~atg[:, :, None] | glowmask

        # per-chunk symbol-count validation; failed chunks fall back
        lane_cnt = mask.sum(axis=(1, 2))
        ch_got = np.bincount(
            ch_of_lane, weights=lane_cnt, minlength=n_ch
        ).astype(np.int64)
        mismatch = np.flatnonzero(ch_got != ch_syms)

        # gap symbol counts: exclusive per-chunk cumsum of lane counts
        total_excl = np.zeros(L, np.int64)
        if L > 1:
            np.cumsum(lane_cnt[:-1], out=total_excl[1:])
        gap_cnt = total_excl - np.repeat(
            total_excl[lane_base[:-1]], n_sub_per
        )

        # chain-end check (decode_lanes exhaustion semantics): walk each
        # count-valid chunk's last subchunk from its sync point to the
        # chunk's final chain position; a last codeword straddling the
        # chunk end routes the chunk to the fallback, where decode_lanes
        # raises exactly as the lanes path would
        last = lane_base[1:] - 1
        p_end = gap_off[last].astype(np.int32)
        rem = ch_syms - gap_cnt[last]
        skip = np.zeros(n_ch, bool)
        skip[mismatch] = True
        if bad_chunks.size:
            skip[bad_chunks] = True
        rem[skip] = 0
        while True:
            act = rem >= 3
            if not act.any():
                break
            gm = meta_t.take(_windows_at(W, p_end))
            adv = (gm >> 10) & 63
            p_end = p_end + np.where(act, adv, 0).astype(np.int32)
            rem = rem - np.where(act, gm >> 16, 0)
        for _ in range(2):
            act = rem > 0
            if not act.any():
                break
            gm = meta_t.take(_windows_at(W, p_end))
            p_end = p_end + np.where(act, gm & 31, 0).astype(np.int32)
            rem = rem - act
        overshoot = np.flatnonzero(~skip & (p_end.astype(np.int64) > ch_end))

        if mismatch.size or bad_chunks.size or overshoot.size:
            bad = np.union1d(
                np.union1d(bad_chunks, mismatch), overshoot
            ).astype(np.int64)
            good_lane = ~np.isin(ch_of_lane, bad)
            mask &= good_lane[:, None, None]
            out_good = inter[mask]
            out = np.empty(total, np.int32)
            good_sym = np.repeat(~np.isin(np.arange(n_ch), bad), ch_syms)
            out[good_sym] = out_good
            fb = decode_lanes(
                buffer, ch_start[bad], ch_end[bad], ch_syms[bad], book, table
            )
            out[~good_sym] = fb
            # exact gap entries for fallback chunks via the reference walk
            ref = reference_gap_array(
                buffer, ch_start[bad], ch_end[bad], book, S, table
            )
            bad_lane = np.isin(ch_of_lane, bad)
            gap_off[bad_lane] = ref.bit_offsets
            gap_cnt[bad_lane] = ref.symbol_counts
            return out.astype(np.int64), gap_off, gap_cnt, int(bad.size)

        out = inter[mask]
        return out.astype(np.int64), gap_off, gap_cnt, 0


def _numpy_gap_decode(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable,
    S: int,
) -> GapDecodeResult:
    meta_t, syms_t = _triple_table(book, table)
    W = _window_words(_pad_buffer(buffer), np.int32)
    n_sub, lane_base = _lane_layout(starts, ends, S)
    # slab chunks so speculative stage memory stays bounded
    lanes_cap = max(256, _SLAB_BYTES // ((S + 64 + _MAXR) * 26))
    out_parts = []
    gap_off = np.empty(int(lane_base[-1]), np.int64)
    gap_cnt = np.empty(int(lane_base[-1]), np.int64)
    fallbacks = 0
    lo = 0
    n_ch = starts.size
    while lo < n_ch:
        hi = lo + 1
        lanes = int(n_sub[lo])
        while hi < n_ch and lanes + int(n_sub[hi]) <= lanes_cap:
            lanes += int(n_sub[hi])
            hi += 1
        sym, goff, gcnt, fb = _numpy_slab(
            buffer,
            W,
            starts[lo:hi],
            ends[lo:hi],
            nsyms[lo:hi],
            S,
            meta_t,
            syms_t,
            book,
            table,
        )
        out_parts.append(sym)
        gap_off[int(lane_base[lo]) : int(lane_base[hi])] = goff
        gap_cnt[int(lane_base[lo]) : int(lane_base[hi])] = gcnt
        fallbacks += fb
        lo = hi
    symbols = (
        np.concatenate(out_parts) if out_parts else np.empty(0, np.int64)
    )
    gap = GapArray(S, lane_base, gap_off, gap_cnt)
    return GapDecodeResult(symbols, gap, "numpy", fallbacks)


# --------------------------------------------------------------- entry point


def _resolved_njit(registry_backend: str | None):
    """The njit registry backend, or ``None`` — only when the resolved
    selection (arg > ``REPRO_BACKEND`` env > default) actually *is*
    njit, so ``REPRO_BACKEND=numpy`` keeps the reference leg pure."""
    from repro import backends as _backends

    bk = _backends.get_backend(registry_backend, quiet=True)
    return bk if bk.name == "njit" else None


def gap_auto_ready(registry_backend: str | None = None) -> bool:
    """Whether ``strategy="auto"`` heuristics should promote the gap
    path: a compiled gap kernel exists — the native C one (flat and
    tiered tables alike), or the njit registry backend when the
    selection resolves to it."""
    return gap_native.native_available() or \
        _resolved_njit(registry_backend) is not None


def gap_decode_lanes(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable | TieredDecodeTable | None = None,
    *,
    subchunk_bits: int | None = None,
    backend: str = "auto",
    registry_backend: str | None = None,
) -> GapDecodeResult:
    """Gap-array decode of chunk lanes (drop-in for ``decode_lanes``).

    ``backend="auto"`` prefers the compiled C kernel, then the njit
    registry backend (only when ``registry_backend`` — or the
    ``REPRO_BACKEND`` env it defaults through — resolves to njit), then
    the NumPy reference; ``"native"``/``"njit"``/``"numpy"`` force one
    (the first two raise if unavailable).  Books the gap tables cannot
    express (see :func:`gap_supported`) decode through ``decode_lanes``
    and report ``backend="lanes"``.

    Flat and tiered tables (automatic for ``max_length`` over the host
    budget) share the compiled route: the C kernel and the njit passes
    take one root+subtable format.  ``"numpy"`` runs the vectorized
    speculative path on flat tables and the registry's exact serial
    walks on tiered ones (test-sized); ``"auto"`` with no compiled
    kernel falls back to ``decode_lanes`` for tiered tables (whose
    batch path is vectorized) with a counted
    ``reason="tiered_no_kernel"``.
    """
    buffer = np.ascontiguousarray(buffer, dtype=np.uint8)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    nsyms = np.ascontiguousarray(nsyms, dtype=np.int64)
    if table is None:
        table = (
            build_tiered_decode_table(book)
            if int(book.max_length) > _HOST_TABLE_BITS
            else build_decode_table(book, _HOST_TABLE_BITS)
        )
    if backend not in ("auto", "native", "njit", "numpy"):
        raise ValueError(f"unknown gap backend: {backend!r}")
    reg = _metrics()
    tiered = isinstance(table, TieredDecodeTable)
    ok, why = gap_supported(book, table)
    numpy_ok = ok and (tiered or int(book.n_symbols) <= 1024 and (
        int(ends.max()) if ends.size else 0
    ) < _INT32_BIT_LIMIT)
    kern = gap_native.kernel() if backend in ("auto", "native") else None
    if backend == "native" and kern is None:
        raise RuntimeError(
            f"native gap backend unavailable: {gap_native.native_error()}"
        )
    njit_bk = None
    if backend == "njit":
        njit_bk = _resolved_njit("njit")
        if njit_bk is None:
            raise RuntimeError("njit gap backend unavailable")
    elif backend == "auto" and kern is None:
        njit_bk = _resolved_njit(registry_backend)
    if not ok or (
        backend == "auto"
        and kern is None
        and njit_bk is None
        and (tiered or not numpy_ok)
    ) or (backend == "numpy" and not numpy_ok):
        reason = why or ("tiered_no_kernel" if tiered else "numpy_limits")
        reg.counter("repro_decode_gap_lut_fallback_total", reason=reason).inc()
        symbols = decode_lanes(buffer, starts, ends, nsyms, book, table)
        return GapDecodeResult(symbols, None, "lanes")

    bk = "native" if kern is not None else "njit" if njit_bk else "numpy"
    S = (
        int(subchunk_bits)
        if subchunk_bits is not None
        else default_subchunk_bits(int((ends - starts).sum()), bk)
    )
    args = (buffer, starts, ends, nsyms, book, table, S)
    gathers = 0
    if bk == "numpy" and not tiered:
        res = _numpy_gap_decode(*args)
    else:  # native, njit, or numpy's exact serial walks (tiered)
        from repro import backends as _backends

        passes = kern if bk == "native" else _RegistryPasses(
            njit_bk or _backends.get_backend("numpy", quiet=True)
        )
        res, gathers = _kernel_gap_decode(passes, bk, *args)
    gap = res.gap
    assert gap is not None
    reg.counter(
        "repro_decode_table_tier_total", tier="tiered" if tiered else "flat"
    ).inc()
    reg.counter("repro_decode_symbols_total", path="gap").inc(
        int(res.symbols.size)
    )
    reg.counter("repro_decode_gap_subchunks_total", backend=bk).inc(
        gap.n_subchunks
    )
    reg.counter("repro_decode_gap_sync_points_total", backend=bk).inc(
        gap.n_sync_points
    )
    if gathers:
        reg.counter("repro_decode_subtable_gather_total", path="gap").inc(
            gathers
        )
    if res.chunk_fallbacks:
        reg.counter("repro_decode_gap_chunk_fallback_total").inc(
            res.chunk_fallbacks
        )
    return res
