"""Runtime-compiled C kernel backing the gap-array decoder.

This module is the one compiled path of :mod:`repro.decoder.gap_array`;
the NumPy lane decoder and the pure-Python reference walk stay as the
reference semantics.  The two kernels mirror the paper's two passes exactly:

- ``gap_sync_pass``: per-chunk codeword-length walk that records, at
  every fixed-width subchunk boundary, the first codeword-aligned bit
  offset at-or-after the boundary and the number of symbols emitted
  before it — the *gap array*.  Chunks are independent, so eight are
  interleaved per iteration to hide the decode-table load latency
  (the serial bp → window → table → bp chain otherwise dominates).
- ``gap_decode_pass``: lock-step decode of *all* subchunk lanes; every
  lane owns a disjoint ``[out_off, out_end)`` output range computed
  from the gap array, so lanes are order-independent.  Eight lanes are
  interleaved per step — the host-side stand-in for a GPU warp.

Both passes take one table format, :class:`KernelTable`: a packed
``2^k1`` root plus zero or more subtables.  A flat ``DecodeTable`` is
the zero-subtable case; a ``TieredDecodeTable`` adds the subtable
descent, so deep books (W=32 chains, genomics) stay on the compiled
path.  :func:`kernel_table` is the one place the C preconditions are
checked.

Compilation happens once per process via :mod:`cffi` + the system C
compiler and is cached on disk keyed by a hash of the C source and
flags; when cffi, a compiler, or a writable cache directory is missing
the module degrades to ``kernel() -> None`` and the callers decode on
the NumPy lane decoder instead.  ``REPRO_GAP_DISABLE_NATIVE=1`` forces
that degradation (used by tests to pin the lanes route).
``REPRO_GAP_SANITIZE=1`` builds the same source with
``-fsanitize=address,undefined`` into its own digest directory (the
process must preload ``libasan``; see ``make sanitize-smoke``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["GapKernel", "KernelTable", "kernel", "kernel_table",
           "native_available", "native_error", "sanitized"]

#: symbols must fit the 24-bit field of a packed (sym << 8 | len) entry
MAX_NATIVE_SYMBOL = (1 << 24) - 1

#: widest root index (the flat builders' cap, 2^25 entries)
MAX_ROOT_BITS = 25

#: widest subtable index (the tiered builder's spill cap)
MAX_NODE_BITS = 12

_TABLE_DECL = ("const uint32_t *l1, int k1, const uint32_t *sub, "
               "const int64_t *node_base, const int32_t *node_bits, "
               "int64_t n_nodes")

_CDEF = f"""
int64_t gap_sync_pass(const uint8_t *buf, const int64_t *ch_start,
    const int64_t *ch_end, const int64_t *lane_base, int64_t n_ch,
    int64_t S, {_TABLE_DECL}, int64_t *gap_off, int64_t *gap_cnt,
    int64_t *ch_n, int64_t *ch_endpos);
void gap_decode_pass(const uint8_t *buf, const int64_t *bit_off,
    const int64_t *out_off, const int64_t *out_end, int64_t n_lanes,
    {_TABLE_DECL}, int64_t *out);
"""

_CSRC = r"""
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))
#define TABLE const uint32_t *l1, int k1, const uint32_t *sub, \
              const int64_t *node_base, const int32_t *node_bits
#define TARGS l1, k1, sub, node_base, node_bits

/* Preconditions (checked by kernel_table() and GapKernel in Python):
 * every table entry is (sym << 8) | len with len >= 1 — a codeword of
 * absolute length len — or node << 8 with node < n_nodes; a subtable
 * entry only points at a later node, so every descent terminates; the
 * deepest descent reads at most `depth` bits past the codeword start;
 * buf is padded by >= 8 + ceil(depth / 8) bytes past the last stream
 * bit, and every position a pass resolves at lies before that bit. */

INLINE uint64_t load_be64(const uint8_t *p) {
    uint64_t v;
    memcpy(&v, p, 8);
    return __builtin_bswap64(v);
}

/* One codeword resolve at bit bp: the k1-bit root gather, then the
 * descent through node pointers (low byte 0), each indexing its
 * subtable with the next node_bits[node] stream bits.  `tiered` is a
 * constant at every call site, so the root-only instantiation is the
 * single gather of a flat table. */
INLINE uint32_t resolve(const uint8_t *buf, int64_t bp, TABLE,
                        const int tiered, int64_t *gathers) {
    uint32_t ent = l1[(load_be64(buf + (bp >> 3)) >> (64 - k1 - (bp & 7)))
                      & ((1u << k1) - 1)];
    if (tiered) {
        int64_t q = bp + k1;
        while ((ent & 0xFFu) == 0) {
            uint32_t node = ent >> 8;
            int nb = node_bits[node];
            ent = sub[node_base[node]
                      + ((load_be64(buf + (q >> 3)) >> (64 - nb - (q & 7)))
                         & ((1u << nb) - 1))];
            q += nb;
            ++*gathers;
        }
    }
    return ent;
}

/* Pass 1: gap-array discovery.  Entries resolve with len >= 1, so the
 * walk always advances and terminates even on corrupt streams.
 * Returns the number of subtable gathers. */
INLINE int64_t sync_body(const uint8_t *buf,
                         const int64_t *ch_start, const int64_t *ch_end,
                         const int64_t *lane_base, int64_t n_ch, int64_t S,
                         TABLE, const int tiered,
                         int64_t *gap_off, int64_t *gap_cnt,
                         int64_t *ch_n, int64_t *ch_endpos) {
    int64_t gathers = 0;
    enum { B = 8 };
    for (int64_t cb = 0; cb < n_ch; cb += B) {
        int nbk = (int)((n_ch - cb < B) ? (n_ch - cb) : B);
        int64_t bp[B], end[B], cur[B], last[B], nb[B], n[B];
        for (int j = 0; j < nbk; j++) {
            int64_t c = cb + j;
            bp[j] = ch_start[c];
            end[j] = ch_end[c];
            cur[j] = lane_base[c];
            last[j] = lane_base[c + 1];
            nb[j] = ch_start[c] + S;
            n[j] = 0;
            gap_off[cur[j]] = bp[j];
            gap_cnt[cur[j]] = 0;
            cur[j]++;
        }
        int active = 1;
        while (active) {
            active = 0;
            for (int j = 0; j < nbk; j++) {
                if (bp[j] < end[j]) {
                    active = 1;
                    while (cur[j] < last[j] && bp[j] >= nb[j]) {
                        gap_off[cur[j]] = bp[j];
                        gap_cnt[cur[j]] = n[j];
                        cur[j]++;
                        nb[j] += S;
                    }
                    bp[j] += resolve(buf, bp[j], TARGS, tiered, &gathers)
                             & 0xFFu;
                    n[j]++;
                }
            }
        }
        for (int j = 0; j < nbk; j++) {
            /* boundaries at/past the chunk's last codeword: record the
             * final chain position (== end on a well-formed stream) */
            while (cur[j] < last[j]) {
                gap_off[cur[j]] = bp[j];
                gap_cnt[cur[j]] = n[j];
                cur[j]++;
            }
            ch_n[cb + j] = n[j];
            ch_endpos[cb + j] = bp[j];
        }
    }
    return gathers;
}

/* Pass 2: lock-step decode of all subchunk lanes. */
INLINE void decode_body(const uint8_t *buf,
                        const int64_t *bit_off, const int64_t *out_off,
                        const int64_t *out_end, int64_t n_lanes,
                        TABLE, const int tiered, int64_t *out) {
    int64_t gathers = 0;
    enum { B = 8 };
    for (int64_t base = 0; base < n_lanes; base += B) {
        int nb = (int)((n_lanes - base < B) ? (n_lanes - base) : B);
        int64_t bp[B], oi[B], oe[B];
        int64_t maxn = 0;
        for (int j = 0; j < nb; j++) {
            bp[j] = bit_off[base + j];
            oi[j] = out_off[base + j];
            oe[j] = out_end[base + j];
            if (oe[j] - oi[j] > maxn) maxn = oe[j] - oi[j];
        }
        for (int64_t it = 0; it < maxn; it++) {
            for (int j = 0; j < nb; j++) {
                if (oi[j] < oe[j]) {
                    uint32_t ent = resolve(buf, bp[j], TARGS, tiered,
                                           &gathers);
                    out[oi[j]++] = ent >> 8;
                    bp[j] += ent & 0xFFu;
                }
            }
        }
    }
}

/* One entry point per pass; the subtable branch is taken once per
 * call, not once per codeword. */
int64_t gap_sync_pass(const uint8_t *buf,
                      const int64_t *ch_start, const int64_t *ch_end,
                      const int64_t *lane_base, int64_t n_ch, int64_t S,
                      TABLE, int64_t n_nodes,
                      int64_t *gap_off, int64_t *gap_cnt,
                      int64_t *ch_n, int64_t *ch_endpos) {
    if (n_nodes)
        return sync_body(buf, ch_start, ch_end, lane_base, n_ch, S, TARGS,
                         1, gap_off, gap_cnt, ch_n, ch_endpos);
    return sync_body(buf, ch_start, ch_end, lane_base, n_ch, S, TARGS, 0,
                     gap_off, gap_cnt, ch_n, ch_endpos);
}

void gap_decode_pass(const uint8_t *buf,
                     const int64_t *bit_off, const int64_t *out_off,
                     const int64_t *out_end, int64_t n_lanes,
                     TABLE, int64_t n_nodes, int64_t *out) {
    if (n_nodes)
        decode_body(buf, bit_off, out_off, out_end, n_lanes, TARGS, 1, out);
    else
        decode_body(buf, bit_off, out_off, out_end, n_lanes, TARGS, 0, out);
}
"""


@dataclass(frozen=True, eq=False)
class KernelTable:
    """The C passes' one table format (build with :func:`kernel_table`).

    ``l1`` is the packed ``2^k1`` root; ``sub`` holds every subtable
    back to back, node ``n`` at ``sub[node_base[n]:][:2**node_bits[n]]``.
    ``pad_bytes`` is the spare tail the stream buffer needs:
    ``8 + ceil(depth / 8)``, ``depth`` being the most bits one resolve
    reads.
    """

    l1: np.ndarray
    k1: int
    sub: np.ndarray
    node_base: np.ndarray
    node_bits: np.ndarray
    pad_bytes: int

    @property
    def n_nodes(self) -> int:
        return int(self.node_bits.size)


def kernel_table(
    l1: np.ndarray,
    k1: int,
    sub: np.ndarray | None = None,
    node_base: np.ndarray | None = None,
    node_bits: np.ndarray | None = None,
) -> KernelTable:
    """Check the C preconditions on a packed root (+ subtables) once and
    wrap it; a root-only call is the flat-table case.  Raises
    ``ValueError`` on an incomplete or malformed table."""
    k1 = int(k1)
    l1 = np.ascontiguousarray(l1).astype(np.uint32, copy=False)
    sub = np.ascontiguousarray(
        np.empty(0, np.uint32) if sub is None else sub
    ).astype(np.uint32, copy=False)
    nbits = np.ascontiguousarray(
        np.empty(0, np.int32) if node_bits is None else node_bits, np.int32
    )
    n = nbits.size
    sizes = np.int64(1) << nbits.astype(np.int64)
    nbase = np.zeros(n, np.int64)
    np.cumsum(sizes[:-1], out=nbase[1:])

    def bad(why: str) -> ValueError:
        return ValueError(f"native kernel precondition: {why}")

    if not 1 <= k1 <= MAX_ROOT_BITS or l1.size != 1 << k1:
        raise bad(f"root must have 2^k1 entries, 1 <= k1 <= {MAX_ROOT_BITS}")
    if n and not ((nbits >= 1) & (nbits <= MAX_NODE_BITS)).all():
        raise bad(f"node_bits must lie in [1, {MAX_NODE_BITS}]")
    if sub.size != int(sizes.sum()) or (
        node_base is not None and not np.array_equal(node_base, nbase)
    ):
        raise bad("subtables must be packed back to back")
    r_node = l1[(l1 & 0xFF) == 0] >> 8
    is_ptr = (sub & 0xFF) == 0
    child = (sub[is_ptr] >> 8).astype(np.int64)
    parent = np.repeat(np.arange(n), sizes)[is_ptr]
    if (r_node >= n).any() or (child >= n).any() or (child <= parent).any():
        raise bad("incomplete table or a backward node pointer")
    # bits one resolve may read: forward pointers settle in <= n rounds
    reach = np.zeros(n, np.int64)
    reach[r_node] = k1 + nbits[r_node]
    for _ in range(n):
        nxt = reach.copy()
        np.maximum.at(nxt, child, reach[parent] + nbits[child])
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    depth = max(k1, int(reach.max(initial=0)))
    return KernelTable(l1, k1, sub, nbase, nbits, 8 + -(-depth // 8))


def _source_digest() -> str:
    return hashlib.blake2b(
        (_CDEF + _CSRC + " ".join(_compile_args())).encode(), digest_size=8
    ).hexdigest()


def sanitized() -> bool:
    """Whether this process builds the ASan/UBSan kernel."""
    return bool(os.environ.get("REPRO_GAP_SANITIZE"))


def _compile_args() -> list[str]:
    if sanitized():
        # -fno-builtin keeps load_be64's memcpy a real call, which ASan
        # checks byte for byte; an inlined unaligned 8-byte load is only
        # checked at its first granule and misses a tail over-read
        return ["-O1", "-g", "-fno-omit-frame-pointer", "-fno-builtin",
                "-fsanitize=address,undefined",
                "-fno-sanitize-recover=all"]
    return ["-O2"]


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_GAP_NATIVE_DIR")
    if env:
        return Path(env)
    # source checkout: <repo>/build/gap_native (this file lives at
    # <repo>/src/repro/decoder/gap_native.py); installed package or a
    # read-only checkout falls back to a per-user temp directory.
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").exists() and os.access(root, os.W_OK):
        return root / "build" / "gap_native"
    return Path(tempfile.gettempdir()) / f"repro-gap-native-{os.getuid()}"


class GapKernel:
    """Thin numpy-array façade over the compiled passes.

    Tables arrive as a checked :class:`KernelTable`; each pass checks the
    buffer side of the C preconditions (lane bounds inside the padded
    buffer) and raises ``ValueError`` instead of calling into C.
    """

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    def _p(self, ctype: str, arr: np.ndarray):
        return self._ffi.cast(ctype, arr.ctypes.data)

    def _table_args(self, t: KernelTable) -> tuple:
        return (
            self._p("uint32_t *", t.l1),
            t.k1,
            self._p("uint32_t *", t.sub),
            self._p("int64_t *", t.node_base),
            self._p("int32_t *", t.node_bits),
            t.n_nodes,
        )

    def sync_pass(
        self,
        padded_buf: np.ndarray,
        ch_start: np.ndarray,
        ch_end: np.ndarray,
        lane_base: np.ndarray,
        subchunk_bits: int,
        table: KernelTable,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Gap array plus per-chunk walk counts/end positions and the
        number of subtable gathers the walk took."""
        n_ch = ch_start.shape[0]
        if n_ch and (
            int(ch_start.min()) < 0
            or int(ch_end.max()) > 8 * (padded_buf.size - table.pad_bytes)
        ):
            raise ValueError(
                "native kernel precondition: lanes must lie inside the "
                "padded buffer"
            )
        n_lanes = int(lane_base[-1])
        gap_off = np.empty(n_lanes, np.int64)
        gap_cnt = np.empty(n_lanes, np.int64)
        ch_n = np.empty(n_ch, np.int64)
        ch_endpos = np.empty(n_ch, np.int64)
        gathers = self._lib.gap_sync_pass(
            self._p("uint8_t *", padded_buf),
            self._p("int64_t *", ch_start),
            self._p("int64_t *", ch_end),
            self._p("int64_t *", lane_base),
            n_ch,
            int(subchunk_bits),
            *self._table_args(table),
            self._p("int64_t *", gap_off),
            self._p("int64_t *", gap_cnt),
            self._p("int64_t *", ch_n),
            self._p("int64_t *", ch_endpos),
        )
        return gap_off, gap_cnt, ch_n, ch_endpos, int(gathers)

    def decode_pass(
        self,
        padded_buf: np.ndarray,
        bit_off: np.ndarray,
        out_off: np.ndarray,
        out_end: np.ndarray,
        table: KernelTable,
        n_out: int,
    ) -> np.ndarray:
        """Decode every lane's ``[out_off, out_end)`` range from its gap
        offset; lanes with symbols to emit must start inside the
        stream (the sync pass's exhaustion check guarantees it)."""
        out = np.empty(int(n_out), np.int64)
        self._lib.gap_decode_pass(
            self._p("uint8_t *", padded_buf),
            self._p("int64_t *", bit_off),
            self._p("int64_t *", out_off),
            self._p("int64_t *", out_end),
            bit_off.shape[0],
            *self._table_args(table),
            self._p("int64_t *", out),
        )
        return out


_LOCK = threading.Lock()
_KERNEL: Optional[GapKernel] = None
_TRIED = False
_ERROR: Optional[str] = None


def _load_or_compile() -> GapKernel:
    from cffi import FFI

    digest = _source_digest()
    modname = f"_repro_gap_{digest}"
    cdir = _cache_dir() / digest
    ffi = FFI()
    ffi.cdef(_CDEF)
    sopath = None
    if cdir.is_dir():
        hits = sorted(cdir.glob(f"{modname}*.so"))
        if hits:
            sopath = hits[0]
    if sopath is None:
        cdir.mkdir(parents=True, exist_ok=True)
        ffi.set_source(modname, _CSRC, extra_compile_args=_compile_args(),
                       extra_link_args=_compile_args())
        sopath = Path(ffi.compile(tmpdir=str(cdir)))
    spec = importlib.util.spec_from_file_location(modname, sopath)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {sopath}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(modname, mod)
    spec.loader.exec_module(mod)
    return GapKernel(mod.ffi, mod.lib)


def kernel() -> Optional[GapKernel]:
    """The compiled kernel, or ``None`` when unavailable (first call
    pays the one-time compile; later calls are a cached read)."""
    global _KERNEL, _TRIED, _ERROR
    if _TRIED:
        return _KERNEL
    with _LOCK:
        if _TRIED:
            return _KERNEL
        if os.environ.get("REPRO_GAP_DISABLE_NATIVE"):
            _ERROR = "disabled via REPRO_GAP_DISABLE_NATIVE"
        else:
            try:
                _KERNEL = _load_or_compile()
            except Exception as exc:  # no cffi / no cc / read-only fs
                _ERROR = f"{type(exc).__name__}: {exc}"
        _TRIED = True
    return _KERNEL


def native_available() -> bool:
    return kernel() is not None


def native_error() -> Optional[str]:
    """Why the native kernel is off (``None`` while it works)."""
    kernel()
    return _ERROR
