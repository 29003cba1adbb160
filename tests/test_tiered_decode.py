"""Tiered decode tables: equality, memory, cache, and counter contracts.

The tentpole contract under test:

- the tiered two-level table decodes **byte-identically** to the flat
  table and the scalar reference on arbitrary books — including crafted
  chain+flat books with alphabets up to 2^17 and codewords far past the
  flat 2^16 host index, where the flat table must lean on its
  First/Entry fallback and the tiered table must not;
- on corrupted streams (bit flips, truncation) every path either raises
  ``ValueError`` like the others or returns the same symbols —
  corruption never silently diverges the implementations;
- both properties hold for the native C gap kernel too, which takes
  the tiered table's root+subtable format directly;
- tiered memory is O(alphabet + 2^k1): at most 25 % of the flat 2^16
  table for every alphabet >= 2^12;
- the digest-keyed cache accounts bytes, evicts by the byte cap, and
  reports per-entry sizes;
- the observability plane sees the tier choice
  (``repro_decode_table_tier_total``), the subtable gather volume, and
  — critically — **zero** ``repro_decode_lut_fallback_total`` on deep
  books now served by the tiered table.

The whole module runs once per registered kernel backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.corpora import deep_codebook, wbit_codebook
from repro.core.bitstream import decode_stream, stream_lanes
from repro.core.encoder import gpu_encode
from repro.decoder.gap_array import gap_decode_lanes, gap_supported
from repro.decoder.gap_native import native_available
from repro.huffman.cache import DecodeTableCache, cached_decode_table
from repro.huffman.codebook import canonical_from_lengths
from repro.huffman.decoder import (
    DecodeTable,
    TieredDecodeTable,
    build_decode_table,
    build_tiered_decode_table,
    decode_batch,
    decode_canonical,
    decode_lanes,
)
from repro.huffman.serial import serial_encode
from repro.obs.metrics import MetricsRegistry, set_registry

pytestmark = pytest.mark.usefixtures("repro_backend")


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def _chain_flat_book(chain: int, flat: int):
    """Kraft-exact book: lengths ``[1..chain]`` plus ``2^flat`` codewords
    at ``chain + flat`` bits.  ``flat`` controls the alphabet size (up to
    2^17) and ``chain + flat`` the depth (well past the 2^16 host
    index)."""
    lens = list(range(1, chain + 1)) + [chain + flat] * (1 << flat)
    return canonical_from_lengths(np.array(lens, dtype=np.int32))


def _skewed_symbols(book, n: int, skew: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n_sym = book.n_symbols
    w = (np.arange(1, n_sym + 1, dtype=np.float64)) ** (-skew)
    return rng.choice(n_sym, size=n, p=w / w.sum()).astype(np.int64)


def _native_gap(buf, nbits, book, n, table):
    """One dense stream through the native C gap kernel, cut into
    64-bit subchunks so even short streams run many lanes."""
    res = gap_decode_lanes(
        buf, np.array([0]), np.array([nbits]), np.array([n]), book, table,
        subchunk_bits=64, backend="native",
    )
    assert res.backend == "native"
    return res.symbols


class TestEqualityChain:
    @settings(max_examples=25, deadline=None)
    @given(
        chain=st.integers(1, 22),
        flat=st.integers(0, 17),
        skew=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
    )
    def test_tiered_equals_flat_equals_scalar(
        self, chain, flat, skew, seed, n
    ):
        if chain + flat > 40:
            chain = 40 - flat
        book = _chain_flat_book(chain, flat)
        data = _skewed_symbols(book, n, skew, seed)
        buf, nbits = serial_encode(data, book)
        flat_t = build_decode_table(book)
        tier_t = build_tiered_decode_table(book)
        assert tier_t.complete
        want = decode_canonical(buf, nbits, book, n, flat_t)
        got_flat = decode_batch(buf, nbits, book, n, table=flat_t,
                                impl="lanes")
        got_tier = decode_batch(buf, nbits, book, n, table=tier_t,
                                impl="lanes")
        np.testing.assert_array_equal(got_flat, want)
        np.testing.assert_array_equal(got_tier, want)
        # default table selection promotes deep books to tiered
        got_auto = decode_batch(buf, nbits, book, n, impl="lanes")
        np.testing.assert_array_equal(got_auto, want)
        if native_available():
            np.testing.assert_array_equal(
                _native_gap(buf, nbits, book, n, tier_t), want
            )

    @settings(max_examples=15, deadline=None)
    @given(
        chain=st.integers(2, 20),
        flat=st.integers(0, 12),
        seed=st.integers(0, 2**31 - 1),
        cut=st.floats(0.05, 0.95),
        flip=st.integers(0, 10**9),
    )
    def test_corruption_raise_parity(self, chain, flat, seed, cut, flip):
        """Bit-flipped and truncated streams: every decode path raises
        ``ValueError`` or returns identical symbols."""
        book = _chain_flat_book(chain, flat)
        n = 200
        data = _skewed_symbols(book, n, 0.7, seed)
        buf, nbits = serial_encode(data, book)
        if buf.size == 0:
            return
        bad = buf.copy()
        bad[flip % bad.size] ^= 1 << (flip % 8)
        trunc = buf[: max(1, int(buf.size * cut))].copy()
        flat_t = build_decode_table(book)
        tier_t = build_tiered_decode_table(book)
        for cbuf, cbits in ((bad, nbits), (trunc, nbits)):
            outs = []
            for table in (flat_t, tier_t):
                try:
                    outs.append(
                        decode_batch(cbuf, cbits, book, n, table=table,
                                     impl="lanes")
                    )
                except ValueError:
                    outs.append(None)
            try:
                outs.append(decode_canonical(cbuf, cbits, book, n, flat_t))
            except ValueError:
                outs.append(None)
            for table in (flat_t, tier_t):
                if native_available() and gap_supported(book, table)[0]:
                    try:
                        outs.append(_native_gap(cbuf, cbits, book, n, table))
                    except ValueError:
                        outs.append(None)
            kinds = {o is None for o in outs}
            assert len(kinds) == 1, (
                "one path raised while another returned symbols"
            )
            if outs[0] is not None:
                for other in outs[1:]:
                    np.testing.assert_array_equal(outs[0], other)


class TestDeepBookEndToEnd:
    def test_wbit32_container_roundtrip(self, registry):
        """The W=32 crafted book — the one that used to force the scalar
        First/Entry fallback — decodes through the tiered table with
        zero LUT fallbacks."""
        rng = np.random.default_rng(11)
        book = wbit_codebook(32)
        data = rng.integers(0, book.n_symbols, 2_000).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        table = cached_decode_table(book)
        assert isinstance(table, TieredDecodeTable)
        out = decode_stream(stream, book, table=table, strategy="batch")
        np.testing.assert_array_equal(out, data)
        assert registry.total("repro_decode_lut_fallback_total") == 0
        assert registry.total(
            "repro_decode_table_tier_total", tier="tiered"
        ) >= 1
        assert registry.total("repro_decode_subtable_gather_total") > 0

    def test_deep_genomics_scale_book(self):
        """4103-symbol book with 4096 codewords at 19 bits: tiered and
        scalar agree over a chunked container."""
        rng = np.random.default_rng(12)
        book = deep_codebook()
        data = rng.integers(0, book.n_symbols, 3_000).astype(np.int64)
        stream = gpu_encode(data, book, magnitude=9).stream
        buffer, starts, ends, nsyms = stream_lanes(stream)
        table = build_tiered_decode_table(book)
        got = decode_lanes(buffer, starts, ends, nsyms, book, table)
        want = decode_lanes(buffer, starts, ends, nsyms, book,
                            build_decode_table(book))
        np.testing.assert_array_equal(got, want)

    def test_tier_counter_flat_books(self, registry):
        rng = np.random.default_rng(13)
        lens = np.array([1, 2, 3, 4, 5, 6, 7, 7], np.int32)
        book = canonical_from_lengths(lens)
        data = rng.integers(0, book.n_symbols, 500).astype(np.int64)
        buf, nbits = serial_encode(data, book)
        out = decode_batch(buf, nbits, book, data.size, impl="lanes")
        np.testing.assert_array_equal(out, data)
        assert registry.total(
            "repro_decode_table_tier_total", tier="flat"
        ) >= 1
        assert registry.total(
            "repro_decode_table_tier_total", tier="tiered"
        ) == 0


class TestMemoryBound:
    @pytest.mark.parametrize("flat_bits", [12, 14])
    def test_quarter_of_flat_table(self, flat_bits):
        """Alphabets >= 2^12: tiered memory <= 25 % of the flat 2^16
        table (the acceptance bound; typical books sit far below it)."""
        book = _chain_flat_book(4, flat_bits)
        assert book.n_symbols >= (1 << 12)
        tier_t = build_tiered_decode_table(book)
        flat16 = build_decode_table(book, 16)
        assert tier_t.complete
        assert tier_t.nbytes() <= flat16.nbytes() // 4

    def test_genomics_deep_book_quarter_bound(self):
        book = deep_codebook()
        tier_t = build_tiered_decode_table(book)
        flat16 = build_decode_table(book, 16)
        assert tier_t.complete
        assert tier_t.nbytes() <= flat16.nbytes() // 4

    def test_huge_alphabet_stays_linear(self):
        """A 2^17-symbol book needs >= 2^17 leaf entries, so the 25 %
        bound cannot apply — but memory must stay O(alphabet + 2^k1),
        nowhere near the 2^max_length a flat full-depth table needs."""
        book = _chain_flat_book(4, 17)
        tier_t = build_tiered_decode_table(book)
        assert tier_t.complete
        assert tier_t.nbytes() <= 2 * 4 * book.n_symbols + (1 << 16)
        full_depth_flat = 8 * (1 << book.max_length)  # two int32 planes
        assert tier_t.nbytes() <= full_depth_flat // 16

    def test_wbit32_small_table(self):
        book = wbit_codebook(32)
        tier_t = build_tiered_decode_table(book)
        flat16 = build_decode_table(book, 16)
        assert tier_t.complete
        # tiny alphabet: dominated by the 2^k1 root, still well under flat
        assert tier_t.nbytes() < flat16.nbytes() // 4


class TestTableCacheBytes:
    def test_burst_of_large_books_respects_cap(self, registry):
        """A burst of distinct deep books cannot pin unbounded table
        memory: eviction runs by bytes, newest entries stay."""
        one = build_tiered_decode_table(deep_codebook()).nbytes()
        cache = DecodeTableCache(maxsize=64, max_bytes=3 * one + one // 2)
        books = [deep_codebook(19, 4096 - 8 * i) for i in range(8)]
        for book in books:
            t = cache.get(book)
            assert isinstance(t, TieredDecodeTable)
        info = cache.info()
        assert info.bytes <= info.max_bytes
        assert info.size < len(books)
        assert len(info.entry_bytes) == info.size
        assert sum(info.entry_bytes) == info.bytes
        # the live byte total is exported as a gauge
        assert registry.total("repro_decode_table_bytes") == info.bytes
        # newest book is still resident
        cache.get(books[-1])
        assert cache.info().hits >= 1

    def test_single_oversized_entry_stays(self):
        cache = DecodeTableCache(maxsize=8, max_bytes=1)
        t = cache.get(deep_codebook())
        info = cache.info()
        assert info.size == 1
        assert info.bytes == t.nbytes() > info.max_bytes

    def test_explicit_small_k_stays_flat(self):
        """Explicit small-k flat tables (the legacy First/Entry-fallback
        contract) remain requestable alongside the tiered entry."""
        cache = DecodeTableCache(maxsize=8)
        book = wbit_codebook(32)
        t4 = cache.get(book, k=4, tier="flat")
        assert isinstance(t4, DecodeTable) and t4.k == 4
        tt = cache.get(book)
        assert isinstance(tt, TieredDecodeTable)
        assert cache.info().size == 2


class TestFlightPaths:
    def test_decode_stream_span_carries_tier(self):
        from repro.obs.flight import extract_paths

        spans = [{
            "name": "decode.stream",
            "attrs": {"strategy": "batch", "table_tier": "tiered"},
        }]
        paths = extract_paths(spans)
        assert paths["decode_strategy"] == "batch"
        assert paths["table_tier"] == "tiered"
