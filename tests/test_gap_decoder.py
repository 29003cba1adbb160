"""Gap-array decoder: property tests pinning the native kernel to the spec.

The contract under test, on arbitrary encoded containers (varying
magnitude, skew, reduction factor, and subchunk width):

- the native C gap kernel (when the toolchain compiled it) produces
  symbols bit-identical to ``decode_lanes``;
- the gap arrays it reports are entry-for-entry equal to
  :func:`reference_gap_array`, the executable serial definition;
- on corrupted containers the gap path either raises the same
  ``ValueError`` as ``decode_lanes`` or returns bit-identical symbols —
  corruption must never silently change behavior between decoders;
- deep books (``max_length`` over the flat host table) stay on the gap
  path through the tiered table on the native C kernel; without a
  compiled kernel, flat and deep books alike fall back to
  ``decode_lanes`` — saying so, with one counted ``no_kernel`` reason;
- ``decode_stream(strategy="auto")`` promotes the gap path whenever the
  native kernel is present;
- the chunk-parallel driver's output is independent of worker count at
  subchunk granularity, and an injected shard crash degrades to the
  serial path with the fallback counter bumped, never to a wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.corpora import wbit_codebook
from repro.core.bitstream import (
    decode_stream,
    decode_stream_scalar,
    stream_lanes,
)
from repro.core.encoder import gpu_encode
from repro.decoder.chunk_parallel import parallel_decode_stream
from repro.decoder.gap_array import (
    gap_decode_lanes,
    gap_supported,
    reference_gap_array,
    subchunk_lane_counts,
)
from repro.decoder.gap_native import native_available
from repro.huffman.cache import cached_decode_table
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import TieredDecodeTable, decode_lanes
from repro.obs import set_tracer
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer

# decode_lanes and reference_gap_array, the oracles, run on the NumPy
# host kernels
pytestmark = pytest.mark.usefixtures("host_kernels")


def _backends() -> list[str]:
    return ["native"] if native_available() else []


def _disable_native(monkeypatch) -> None:
    """``REPRO_GAP_DISABLE_NATIVE=1`` for this test, with the kernel's
    one-shot load state reset so the switch takes effect."""
    from repro.decoder import gap_native

    monkeypatch.setenv("REPRO_GAP_DISABLE_NATIVE", "1")
    for name, value in (("_TRIED", False), ("_KERNEL", None),
                        ("_ERROR", None)):
        monkeypatch.setattr(gap_native, name, value)


def _make_stream(seed: int, n: int, alphabet: int, skew: float,
                 magnitude: int):
    """Deterministic encoded container with a data-derived codebook."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(alphabet) * skew)
    data = rng.choice(alphabet, size=n, p=probs).astype(np.uint16)
    freqs = np.bincount(data, minlength=alphabet).astype(np.int64)
    from repro.core.codebook_parallel import parallel_codebook

    book = parallel_codebook(freqs).codebook
    stream = gpu_encode(data, book, magnitude=magnitude).stream
    return data, book, stream


def _assert_gap_matches_lanes(book, stream, subchunk_bits):
    """The full contract on one container: symbols + gap array + spec.

    Books outside gap range (e.g. a one-entry book's incomplete table)
    must take the documented ``decode_lanes`` fallback instead.
    """
    table = cached_decode_table(book)
    buffer, starts, ends, nsyms = stream_lanes(stream)
    want = decode_lanes(buffer, starts, ends, nsyms, book, table)
    if not gap_supported(book, table)[0]:
        res = gap_decode_lanes(buffer, starts, ends, nsyms, book, table,
                               subchunk_bits=subchunk_bits)
        assert res.backend == "lanes" and res.gap is None
        np.testing.assert_array_equal(res.symbols, want)
        return
    ref = reference_gap_array(buffer, starts, ends, book, subchunk_bits,
                              table)
    # full-container cross-check: the gap strategy end-to-end equals the
    # serial treeless decoder (decode_canonical chunk by chunk)
    np.testing.assert_array_equal(
        decode_stream(stream, book, strategy="gap"),
        decode_stream_scalar(stream, book),
    )
    for backend in _backends():
        res = gap_decode_lanes(
            buffer, starts, ends, nsyms, book, table,
            subchunk_bits=subchunk_bits, backend=backend,
        )
        assert res.backend == backend
        np.testing.assert_array_equal(res.symbols, want)
        assert res.gap is not None and res.gap.equal(ref), (
            f"{backend} gap array diverges from the reference walk"
        )


class TestGapEqualsLanes:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(64, 6000),
        alphabet=st.sampled_from([2, 3, 16, 64, 256]),
        skew=st.sampled_from([0.05, 0.3, 1.0, 8.0]),
        magnitude=st.sampled_from([6, 8, 10]),
        subchunk_bits=st.sampled_from([48, 96, 256, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_matches_lanes_and_reference(
        self, seed, n, alphabet, skew, magnitude, subchunk_bits
    ):
        _data, book, stream = _make_stream(seed, n, alphabet, skew,
                                           magnitude)
        _assert_gap_matches_lanes(book, stream, subchunk_bits)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_single_symbol_alphabet(self, seed):
        """Degenerate one-entry book: every chunk is a run of one code."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        data = np.zeros(n, dtype=np.uint16)
        from repro.core.codebook_parallel import parallel_codebook

        book = parallel_codebook(np.array([n], dtype=np.int64)).codebook
        stream = gpu_encode(data, book, magnitude=6).stream
        _assert_gap_matches_lanes(book, stream, 64)

    def test_breaking_heavy_stream(self):
        """Pinned r=2 under a wide-ish book: most cells break, so the
        lanes carry dense broken-cell traffic alongside chunk payloads."""
        rng = np.random.default_rng(7)
        book = wbit_codebook(14)
        data = rng.integers(0, book.n_symbols, 4000).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        _assert_gap_matches_lanes(book, stream, 128)


class TestCorruptStreams:
    @given(
        seed=st.integers(0, 2**32 - 1),
        flip=st.integers(0, 10**9),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_flip_raise_parity(self, seed, flip):
        """A flipped payload bit must not split decoder behavior: either
        every decoder raises ValueError or every decoder returns the
        same (wrong) symbols."""
        _data, book, stream = _make_stream(seed, 2500, 64, 0.3, 8)
        table = cached_decode_table(book)
        buffer, starts, ends, nsyms = stream_lanes(stream)
        buffer = buffer.copy()
        if buffer.size:
            buffer[flip % buffer.size] ^= 1 << (flip % 8)

        try:
            want = decode_lanes(buffer, starts, ends, nsyms, book, table)
            want_raise = None
        except ValueError as exc:
            want, want_raise = None, str(exc)
        for backend in _backends():
            try:
                got = gap_decode_lanes(
                    buffer, starts, ends, nsyms, book, table,
                    subchunk_bits=96, backend=backend,
                ).symbols
            except ValueError:
                assert want_raise is not None, (
                    f"{backend} raised but decode_lanes decoded"
                )
            else:
                assert want_raise is None, (
                    f"{backend} decoded but decode_lanes raised: "
                    f"{want_raise}"
                )
                np.testing.assert_array_equal(got, want)

    def test_truncated_tail_raises_everywhere(self):
        _data, book, stream = _make_stream(11, 3000, 64, 0.3, 8)
        table = cached_decode_table(book)
        buffer, starts, ends, nsyms = stream_lanes(stream)
        cut = buffer[: max(1, buffer.size // 2)].copy()
        keep = ends <= cut.size * 8
        # keep one lane whose end bit now lies past the buffer
        starts2 = np.append(starts[keep], starts[~keep][:1])
        ends2 = np.append(ends[keep], np.int64(cut.size * 8 + 40))
        nsyms2 = np.append(nsyms[keep], nsyms[~keep][:1] + 10**6)
        with pytest.raises(ValueError):
            decode_lanes(cut, starts2, ends2, nsyms2, book, table)
        for backend in _backends():
            with pytest.raises(ValueError):
                gap_decode_lanes(cut, starts2, ends2, nsyms2, book, table,
                                 subchunk_bits=96, backend=backend)


class TestDeepBooks:
    def test_wide_book_stays_on_gap_path_via_tiered_table(self):
        """W=32 codewords exceed the flat 16-bit host table, but the
        automatic tiered promotion keeps the book gap-supported: the
        native C kernel reproduces the reference walk and decode_lanes
        byte-for-byte."""
        rng = np.random.default_rng(3)
        book = wbit_codebook(32)
        table = cached_decode_table(book)
        assert isinstance(table, TieredDecodeTable)
        assert gap_supported(book, table)[0] is True
        data = rng.integers(0, book.n_symbols, 800).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        buffer, starts, ends, nsyms = stream_lanes(stream)
        want = decode_lanes(buffer, starts, ends, nsyms, book, table)
        ref = reference_gap_array(buffer, starts, ends, book, 256, table)
        for backend in _backends():
            res = gap_decode_lanes(buffer, starts, ends, nsyms, book,
                                   table, subchunk_bits=256,
                                   backend=backend)
            assert res.backend == backend
            assert res.gap is not None and res.gap.equal(ref)
            np.testing.assert_array_equal(res.symbols, want)

    def test_auto_without_kernel_falls_back_to_lanes(self, monkeypatch):
        """``backend="auto"`` with the native kernel switched off has no
        compiled gap kernel: the call degrades to decode_lanes for deep
        (tiered) and flat books alike, reports the ``"lanes"`` route,
        and counts one ``no_kernel`` fallback per call."""
        from repro.decoder import gap_array, gap_native

        _disable_native(monkeypatch)
        for book_bits in (32, 12):
            reg = MetricsRegistry()
            prev = set_registry(reg)
            rng = np.random.default_rng(4)
            book = wbit_codebook(book_bits)
            table = cached_decode_table(book)
            assert isinstance(table, TieredDecodeTable) == (book_bits > 16)
            assert gap_supported(book, table)[0] is True
            data = rng.integers(0, book.n_symbols, 500).astype(np.uint16)
            stream = gpu_encode(data, book, magnitude=8,
                                reduction_factor=2).stream
            buffer, starts, ends, nsyms = stream_lanes(stream)
            want = decode_lanes(buffer, starts, ends, nsyms, book, table)
            try:
                res = gap_decode_lanes(buffer, starts, ends, nsyms, book,
                                       table, subchunk_bits=256,
                                       backend="auto")
            finally:
                set_registry(prev)
            assert gap_native.kernel() is None
            assert gap_array.gap_route() == "lanes"
            assert res.backend == "lanes"
            assert res.gap is None
            np.testing.assert_array_equal(res.symbols, want)
            assert reg.total("repro_decode_gap_lut_fallback_total",
                             reason="no_kernel") == 1
            assert reg.total("repro_decode_gap_lut_fallback_total") == 1
            with pytest.raises(RuntimeError, match="native gap backend"):
                gap_decode_lanes(buffer, starts, ends, nsyms, book, table,
                                 backend="native")

    @pytest.mark.skipif(not native_available(),
                        reason="native gap kernel unavailable")
    def test_native_tiered_route_is_visible(self):
        """The native route on a deep book counts the tier, the gap
        symbols and the sync pass's subtable gathers (the batch path's
        count for the same stream), and stamps ``table_tier`` on both
        gap spans."""
        from repro.obs.trace import tracing

        rng = np.random.default_rng(6)
        book = wbit_codebook(32)
        table = cached_decode_table(book)
        data = rng.integers(0, book.n_symbols, 3000).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8).stream
        lanes = stream_lanes(stream)
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            with tracing() as t:
                res = gap_decode_lanes(*lanes, book, table,
                                       subchunk_bits=256, backend="auto")
            decode_lanes(*lanes, book, table)
        finally:
            set_registry(prev)
        assert res.backend == "native"
        np.testing.assert_array_equal(res.symbols, data)
        assert reg.total("repro_decode_table_tier_total",
                         tier="tiered") == 2
        assert reg.total("repro_decode_symbols_total",
                         path="gap") == data.size
        gathers = reg.total("repro_decode_subtable_gather_total",
                            path="gap")
        assert gathers > 0 and gathers == reg.total(
            "repro_decode_subtable_gather_total", path="batch"
        )
        assert reg.total("repro_decode_gap_lut_fallback_total") == 0
        tiers = {sp.name: sp.attrs.get("table_tier") for sp in t.spans}
        assert tiers["decode.gap.sync"] == "tiered"
        assert tiers["decode.gap.decode"] == "tiered"


class TestGapRoute:
    def test_decode_stream_gap_without_kernel_reports_lanes(
        self, monkeypatch
    ):
        """Under ``REPRO_GAP_DISABLE_NATIVE=1``, ``decode_stream(...,
        strategy="gap")`` on a flat book returns the lane decoder's
        output, and ``/stats`` reports the ``"lanes"`` route."""
        from repro.serve.service import CompressionService, ServiceConfig

        _disable_native(monkeypatch)
        data, book, stream = _make_stream(31, 8000, 64, 0.3, 8)
        table = cached_decode_table(book)
        assert not isinstance(table, TieredDecodeTable)
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            out = decode_stream(stream, book, strategy="gap")
        finally:
            set_registry(prev)
        np.testing.assert_array_equal(
            out, decode_stream(stream, book, strategy="batch")
        )
        np.testing.assert_array_equal(out, data)
        assert reg.total("repro_decode_gap_lut_fallback_total",
                         reason="no_kernel") == 1
        assert reg.total("repro_decode_symbols_total", path="gap") == 0
        with CompressionService(ServiceConfig(n_shards=1)) as svc:
            assert svc.stats()["decode"]["gap_backend"] == "lanes"

    def test_native_still_promotes_gap(self):
        """``decode_stream``'s auto heuristic takes the gap path when the
        native kernel is present (large enough stream)."""
        from repro.core.codebook_parallel import parallel_codebook
        from repro.decoder import gap_array

        if not native_available():
            pytest.skip("native gap kernel not built")
        rng = np.random.default_rng(7)
        n = max(60_000, gap_array.AUTO_MIN_SYMBOLS)
        data = rng.integers(0, 40, size=n).astype(np.int64)
        book = parallel_codebook(
            np.bincount(data, minlength=64) + 1
        ).codebook
        stream = gpu_encode(data, book).stream
        tracer = Tracer()
        prev = set_tracer(tracer)
        try:
            out = decode_stream(stream, book)
        finally:
            set_tracer(prev)
        sp = [s for s in tracer.spans if s.name == "decode.stream"][0]
        assert sp.attrs["strategy"] == "gap"
        np.testing.assert_array_equal(out, data)


class TestChunkParallelGap:
    @pytest.fixture
    def registry(self):
        reg = MetricsRegistry()
        prev = set_registry(reg)
        yield reg
        set_registry(prev)

    def test_output_independent_of_workers(self, registry):
        data, book, stream = _make_stream(21, 30_000, 64, 0.2, 8)
        outs = [
            parallel_decode_stream(stream, book, workers=w, impl="gap")
            for w in (1, 2, 3, 5)
        ]
        for out in outs:
            np.testing.assert_array_equal(out, data)

    def test_shards_balance_by_subchunks(self):
        """Gap shards weight lanes by subchunk count, so a shard split
        covers every lane exactly once in order, whatever the weights."""
        from repro.decoder.chunk_parallel import _shard_bounds

        rng = np.random.default_rng(5)
        bits = rng.integers(0, 50_000, 200).astype(np.int64)
        weights = subchunk_lane_counts(bits, 256)
        for workers in (1, 2, 4, 7):
            bounds = _shard_bounds(weights, workers)
            assert bounds[0][0] == 0 and bounds[-1][1] == weights.size
            for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2

    def test_injected_shard_crash_falls_back_serial(self, registry):
        from repro.decoder import chunk_parallel

        data, book, stream = _make_stream(23, 30_000, 64, 0.2, 8)
        chunk_parallel._fail_shards = {0}
        try:
            out = parallel_decode_stream(stream, book, workers=3,
                                         impl="gap")
        finally:
            chunk_parallel._fail_shards = set()
        np.testing.assert_array_equal(out, data)
        assert registry.total(
            "repro_decode_parallel_fallback_total"
        ) == 1
