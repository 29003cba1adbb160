"""Hostile deep-book input on the native C gap kernel.

Truncated and bit-flipped deep-book containers go through the native
route (``gap_decode_lanes(..., backend="native")``): the crafted W=32
chain (``maxlen_w``) and ``large_alphabet`` conformance corpora, a
natural genomics k-mer book, and a 128^3 cuSZ field.  The contract:

- only ``ValueError`` escapes the native route;
- on lane-level mutants (payload bit flips, a stream cut short) the
  native kernel raises exactly when ``decode_lanes`` raises, and
  otherwise returns the same symbols.

Truncation is the case the buffer padding exists for: the sync pass
walks right up to the cut, and its window loads and descents read past
it.  ``make sanitize-smoke`` runs this module against the
AddressSanitizer/UBSan build of the kernel (``REPRO_GAP_SANITIZE=1``
with ``libasan`` preloaded) at >= 10k mutants, where any sanitizer
report aborts the run, and adds a negative control: an unpadded buffer
must produce a sanitizer report.  The plain suite runs a small slice of
the same mutants.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.conform.corpora import build_corpora
from repro.core.bitstream import stream_lanes
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import deserialize_stream, serialize_stream
from repro.datasets.quantization import lorenzo_quantize, synthetic_field
from repro.decoder import gap_native
from repro.decoder.gap_array import gap_decode_lanes
from repro.huffman.cache import cached_decode_table
from repro.huffman.decoder import _HOST_TABLE_BITS, decode_lanes
from repro.perf.wallclock import _table_bench_input

SANITIZED = gap_native.sanitized()

#: mutants over the corpus targets, plus ``_FIELD_MUTANTS`` on the field
_MUTANTS = 10_000 if SANITIZED else 200
_FIELD_MUTANTS = 24 if SANITIZED else 2
_OPS = ("bit_flip", "truncate", "container")

pytestmark = pytest.mark.skipif(
    not gap_native.native_available(),
    reason=f"native gap kernel unavailable: {gap_native.native_error()}",
)


def _targets() -> list[tuple[str, object, object]]:
    """(name, book, stream) for every deep-book target."""
    out = []
    for corpus in build_corpora(("maxlen_w", "large_alphabet")):
        for s in corpus.samples:
            book = s.resolve_book()
            stream = gpu_encode(s.data, book, magnitude=8).stream
            out.append((f"{corpus.name}/{s.name}", book, stream))
    # the corpus's own k-mer samples are too short for a deep book; the
    # table bench's natural genomics book (2^18-symbol histogram) is deep
    data, book = _table_bench_input("genomics", 8_192, 2021)
    out.append(("genomics", book, gpu_encode(data, book, magnitude=8).stream))
    for name, book, _ in out:
        assert int(book.max_length) > _HOST_TABLE_BITS, name
    rng = np.random.default_rng(128)
    codes = lorenzo_quantize(
        synthetic_field((128,) * 3, rng, roughness=0.02), 4e-3, 1024
    ).codes.astype(np.uint16)
    book = parallel_codebook(
        np.bincount(codes, minlength=1024).astype(np.int64)
    ).codebook
    assert int(book.max_length) > _HOST_TABLE_BITS
    out.append(("field128", book, gpu_encode(codes, book).stream))
    return out


def _decode_or_none(fn):
    try:
        return fn()
    except ValueError:
        return None


def _check_lanes(buffer, starts, ends, nsyms, book, S, parity: bool):
    table = cached_decode_table(book)
    got = _decode_or_none(lambda: gap_decode_lanes(
        buffer, starts, ends, nsyms, book, table,
        subchunk_bits=S, backend="native",
    ).symbols)
    if not parity:
        return got is None
    want = _decode_or_none(
        lambda: decode_lanes(buffer, starts, ends, nsyms, book, table)
    )
    assert (got is None) == (want is None), (
        "native gap kernel and decode_lanes disagree on raising"
    )
    if got is not None:
        np.testing.assert_array_equal(got, want)
    return got is None


def _mutant(op, rng, book, stream, buffer, starts, ends, nsyms, S):
    """Apply one mutation and run it; True when it was rejected."""
    if op == "bit_flip":
        bad = buffer.copy()
        for _ in range(int(rng.integers(1, 9))):
            bad[int(rng.integers(0, bad.size))] ^= 1 << int(rng.integers(8))
        return _check_lanes(bad, starts, ends, nsyms, book, S, True)
    if op == "truncate":
        # cut the shared buffer; lanes past the cut end there, still
        # claiming every symbol, so chains run to the very last byte
        cut = int(rng.integers(1, buffer.size + 1))
        e2 = np.minimum(ends, 8 * cut)
        return _check_lanes(buffer[:cut].copy(), np.minimum(starts, e2), e2,
                            nsyms, book, S, True)
    blob = bytearray(serialize_stream(stream, book))
    if rng.integers(2):
        blob = blob[: int(rng.integers(0, len(blob)))]
    else:
        for _ in range(int(rng.integers(1, 9))):
            blob[int(rng.integers(0, len(blob)))] ^= 1 << int(rng.integers(8))
    try:
        st2, book2 = deserialize_stream(bytes(blob))
    except ValueError:
        return True
    if int(book2.max_length) <= _HOST_TABLE_BITS:
        return False  # corruption made the book shallow: not this test
    return _check_lanes(*stream_lanes(st2), book2, S, False)


def test_only_valueerror_escapes_native_route():
    rng = np.random.default_rng(0x5A17)
    total = rejected = 0
    targets = _targets()
    per_target = -(-_MUTANTS // (len(targets) - 1))
    for name, book, stream in targets:
        buffer, starts, ends, nsyms = stream_lanes(stream)
        n = _FIELD_MUTANTS if name == "field128" else per_target
        for i in range(n):
            S = (64, 256, 1024)[i % 3]
            rejected += _mutant(_OPS[i % len(_OPS)], rng, book, stream,
                                buffer, starts, ends, nsyms, S)
            total += 1
    if SANITIZED:
        print(f"\nsanitize-smoke: {total} mutated deep-book containers "
              f"through the sanitized native kernel, {rejected} rejected "
              f"with ValueError, no sanitizer report")
        assert total >= 10_000


_UNPADDED = r"""
import dataclasses
import numpy as np
from repro.conform.corpora import wbit_codebook
from repro.decoder import gap_array, gap_native
from repro.huffman.cache import cached_decode_table

book = wbit_codebook(32)
kt = gap_array._kernel_table(book, cached_decode_table(book))
n = 4096
# a walk over the last bytes of an unpadded buffer: every 64-bit window
# load there runs past the allocation
buf = gap_array._pad_buffer(np.full(n, 0xFF, np.uint8), 0)
gap_native.kernel().sync_pass(
    buf, np.array([8 * n - 64]), np.array([8 * n]), np.array([0, 1]),
    1024, dataclasses.replace(kt, pad_bytes=0),
)
"""


@pytest.mark.skipif(not SANITIZED, reason="needs the sanitized kernel")
def test_sanitizer_catches_unpadded_window_loads():
    """Negative control: the sanitizer is live on the kernel's window
    loads — dropping the buffer padding must produce a report."""
    proc = subprocess.run(
        [sys.executable, "-c", _UNPADDED],
        env=dict(os.environ), capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert b"AddressSanitizer" in proc.stderr, proc.stderr[-2000:]
