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

Both passes run in :mod:`repro.decoder.gap_native`, a runtime-compiled
C kernel with *exact* pass-1 discovery (an interleaved length walk) over
one root+subtable table format, so flat and tiered (deep) books share
it.  The decode route therefore has two legs, chosen by whether that
kernel compiled (:func:`gap_route`): ``"native"``, or ``"lanes"`` —
:func:`repro.huffman.decoder.decode_lanes`, which decodes the same
symbols without a gap array.

:func:`reference_gap_array` is the executable definition of pass 1: the
same walk in pure Python, pinned against the C kernel by golden vectors
and property tests.  The gap array follows the *decode chain* semantics
of the table: on a corrupt stream the recorded offsets stay on the chain
a serial table walk would follow, so gap output equals lane output even
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
    build_decode_table,
    build_tiered_decode_table,
    decode_lanes,
)
from repro.obs import metrics as _metrics
from repro.obs import span as _span

__all__ = [
    "DEFAULT_SUBCHUNK_BITS",
    "GapArray",
    "GapDecodeResult",
    "gap_auto_ready",
    "gap_decode_lanes",
    "gap_route",
    "gap_supported",
    "reference_gap_array",
    "subchunk_lane_counts",
]

#: ``strategy="auto"`` stays on ``decode_lanes`` below this many symbols
AUTO_MIN_SYMBOLS = 1 << 12

#: subchunk width the gap decoder uses unless a caller pins one
DEFAULT_SUBCHUNK_BITS = 1024


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

    ``backend`` is the route that decoded: ``"native"``, or ``"lanes"``
    when the whole call fell back to ``decode_lanes`` (no compiled
    kernel, or a book outside gap-table limits), in which case ``gap``
    is ``None``.
    """

    symbols: np.ndarray
    gap: Optional[GapArray]
    backend: str


# ------------------------------------------------------------------- helpers


def subchunk_lane_counts(ch_bits: np.ndarray, subchunk_bits: int) -> np.ndarray:
    """Subchunks per chunk: ``max(ceil(bits / S), 1)`` (empty chunks
    still own one lane so the gap array addresses every chunk)."""
    S = int(subchunk_bits)
    if S < 16:
        raise ValueError("subchunk_bits must be >= 16")
    return np.maximum(-(-ch_bits.astype(np.int64) // S), 1)


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


#: LRU of C-kernel tables keyed by (digest, "kernel", k, ...)
_GAP_TABLES = _LruCache(16, name="gap_table")


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
        (table.symbol.astype(np.uint32) << np.uint32(8))
        | table.length.astype(np.uint32),
        table.k,
    ))


def _pad_buffer(buffer: np.ndarray, pad: int) -> np.ndarray:
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


def _window(pbuf: np.ndarray, bp: int, k: int) -> int:
    """The C kernel's ``load_be64(buf + (bp >> 3)) >> (64 - k - (bp & 7))``
    on the padded buffer, in exact Python integers."""
    byte = bp >> 3
    w = int.from_bytes(pbuf[byte:byte + 8].tobytes(), "big")
    return w >> (64 - k - (bp & 7))


def _resolve(pbuf: np.ndarray, bp: int, kt: gap_native.KernelTable) -> int:
    """One codeword resolve starting at bit ``bp``: gather the k1-bit
    root window, then descend node pointers (length byte 0) through the
    subtables until a packed ``(symbol << 8) | abs_length`` entry
    resolves.  :func:`gap_native.kernel_table` admits only complete
    tables, so a pointer is always valid here."""
    ent = int(kt.l1[_window(pbuf, bp, kt.k1) & ((1 << kt.k1) - 1)])
    q = bp + kt.k1
    while (ent & 0xFF) == 0:
        node = ent >> 8
        nb = int(kt.node_bits[node])
        ent = int(kt.sub[
            int(kt.node_base[node]) + (_window(pbuf, q, nb) & ((1 << nb) - 1))
        ])
        q += nb
    return ent


def reference_gap_array(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    book: CanonicalCodebook,
    subchunk_bits: int,
    table: DecodeTable | TieredDecodeTable | None = None,
) -> GapArray:
    """Exact gap array by per-chunk serial walk over the root+subtable
    table: the C kernel's sync pass, one codeword at a time.

    The executable definition the native kernel is pinned against
    (golden vectors, property tests).  Pure-Python per symbol —
    test-sized inputs only.
    """
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
    pbuf = _pad_buffer(np.asarray(buffer, dtype=np.uint8), kt.pad_bytes)
    gap_off = np.empty(int(lane_base[-1]), np.int64)
    gap_cnt = np.empty(int(lane_base[-1]), np.int64)
    for c in range(starts.size):
        bp, end = int(starts[c]), int(ends[c])
        cur, last = int(lane_base[c]), int(lane_base[c + 1])
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
            bp += _resolve(pbuf, bp, kt) & 0xFF
            n += 1
        gap_off[cur:last] = bp
        gap_cnt[cur:last] = n
    return GapArray(S, lane_base, gap_off, gap_cnt)


# -------------------------------------------------------------- native route


def _kernel_gap_decode(
    kern: gap_native.GapKernel,
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable | TieredDecodeTable,
    S: int,
) -> tuple[GapDecodeResult, int]:
    """The compiled C kernel's two exact passes over one root+subtable
    table.  Returns the result and the number of subtable gathers pass 1
    took."""
    kt = _kernel_table(book, table)
    tier = "tiered" if isinstance(table, TieredDecodeTable) else "flat"
    n_sub, lane_base = _lane_layout(starts, ends, S)
    pbuf = _pad_buffer(buffer, kt.pad_bytes)
    with _span(
        "decode.gap.sync",
        backend="native",
        table_tier=tier,
        subchunk_bits=S,
        lanes=int(lane_base[-1]),
        chunks=int(starts.size),
    ):
        gap_off, gap_cnt, ch_n, ch_endpos, gathers = kern.sync_pass(
            pbuf, starts, ends, lane_base, S, kt
        )
        # replicate decode_lanes' exhaustion semantics: a chunk whose
        # chain yields fewer codewords than the container claims, or
        # exactly as many but with the last one straddling the chunk
        # end, would leave a lane cursor past its end there
        exhausted = (ch_n < nsyms) | ((ch_n == nsyms) & (ch_endpos > ends))
        if bool(exhausted.any()):
            raise ValueError("bitstream exhausted before all symbols decoded")
    with _span("decode.gap.decode", backend="native", table_tier=tier,
               lanes=int(lane_base[-1])):
        out_off, out_end, sym_base = _output_ranges(
            gap_cnt, n_sub, lane_base, nsyms
        )
        symbols = kern.decode_pass(
            pbuf, gap_off, out_off, out_end, kt, int(sym_base[-1])
        )
    gap = GapArray(S, lane_base, gap_off, gap_cnt)
    return GapDecodeResult(symbols, gap, "native"), int(gathers)


# --------------------------------------------------------------- entry point


def gap_route() -> str:
    """The route ``gap_decode_lanes(backend="auto")`` takes on this
    host: ``"native"`` when the C kernel compiled, else ``"lanes"``."""
    return "native" if gap_native.native_available() else "lanes"


def gap_auto_ready() -> bool:
    """Whether ``strategy="auto"`` heuristics should promote the gap
    path: the compiled C kernel exists (flat and tiered tables alike)."""
    return gap_native.native_available()


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
) -> GapDecodeResult:
    """Gap-array decode of chunk lanes (drop-in for ``decode_lanes``).

    ``backend="auto"`` decodes on the compiled C kernel when it exists;
    ``"native"`` requires it and raises ``RuntimeError`` otherwise.
    Without the kernel, or for books the gap tables cannot express (see
    :func:`gap_supported`), the call decodes through ``decode_lanes``,
    reports ``backend="lanes"`` and counts
    ``repro_decode_gap_lut_fallback_total{reason=...}``
    (``"no_kernel"`` for the missing kernel).
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
    if backend not in ("auto", "native"):
        raise ValueError(f"unknown gap backend: {backend!r}")
    kern = gap_native.kernel()
    if backend == "native" and kern is None:
        raise RuntimeError(
            f"native gap backend unavailable: {gap_native.native_error()}"
        )
    reg = _metrics()
    ok, why = gap_supported(book, table)
    if not ok or kern is None:
        reg.counter("repro_decode_gap_lut_fallback_total",
                    reason=why or "no_kernel").inc()
        symbols = decode_lanes(buffer, starts, ends, nsyms, book, table)
        return GapDecodeResult(symbols, None, "lanes")

    S = DEFAULT_SUBCHUNK_BITS if subchunk_bits is None else int(subchunk_bits)
    res, gathers = _kernel_gap_decode(
        kern, buffer, starts, ends, nsyms, book, table, S
    )
    gap = res.gap
    assert gap is not None
    reg.counter(
        "repro_decode_table_tier_total",
        tier="tiered" if isinstance(table, TieredDecodeTable) else "flat",
    ).inc()
    reg.counter("repro_decode_symbols_total", path="gap").inc(
        int(res.symbols.size)
    )
    reg.counter("repro_decode_gap_subchunks_total", backend="native").inc(
        gap.n_subchunks
    )
    reg.counter("repro_decode_gap_sync_points_total", backend="native").inc(
        gap.n_sync_points
    )
    if gathers:
        reg.counter("repro_decode_subtable_gather_total", path="gap").inc(
            gathers
        )
    return res
