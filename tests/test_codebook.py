"""Tests for canonical codebooks: construction, metadata, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.huffman.codebook import (
    MAX_CODE_BITS,
    CanonicalCodebook,
    canonical_from_lengths,
)
from repro.huffman.tree import codeword_lengths_serial

histograms = st.lists(st.integers(0, 10**5), min_size=1, max_size=150)


class TestCanonicalFromLengths:
    def test_classic_example(self):
        # lengths (2,1,3,3) -> canonical codes 10,0,110,111
        book = canonical_from_lengths(np.array([2, 1, 3, 3]))
        assert book.codes.tolist() == [0b10, 0b0, 0b110, 0b111]

    def test_first_entry_metadata(self):
        book = canonical_from_lengths(np.array([2, 1, 3, 3]))
        assert book.first[1] == 0
        assert book.first[2] == 0b10
        assert book.first[3] == 0b110
        assert book.entry.tolist() == [0, 0, 1, 2]

    def test_symbols_by_code_order(self):
        book = canonical_from_lengths(np.array([3, 1, 3, 2]))
        assert book.symbols_by_code.tolist() == [1, 3, 0, 2]

    def test_all_unused(self):
        book = canonical_from_lengths(np.zeros(5, dtype=np.int32))
        assert book.n_used == 0
        assert book.kraft_sum() == 0.0

    def test_single_code(self):
        book = canonical_from_lengths(np.array([0, 1, 0]))
        assert book.codes[1] == 0
        assert book.kraft_sum() == pytest.approx(0.5)

    def test_rejects_kraft_violation(self):
        with pytest.raises(ValueError):
            canonical_from_lengths(np.array([1, 1, 1]))

    def test_rejects_overlong(self):
        with pytest.raises(ValueError):
            canonical_from_lengths(np.array([MAX_CODE_BITS + 1, 1]))

    def test_ties_break_by_symbol_index(self):
        book = canonical_from_lengths(np.array([2, 2, 2, 2]))
        assert book.codes.tolist() == [0, 1, 2, 3]

    @given(histograms)
    @settings(max_examples=100)
    def test_huffman_lengths_always_accepted(self, freqs):
        lengths = codeword_lengths_serial(np.asarray(freqs, dtype=np.int64))
        book = canonical_from_lengths(lengths)
        assert np.array_equal(book.lengths, lengths)
        assert book.is_prefix_free()

    @given(histograms)
    @settings(max_examples=50)
    def test_codes_increase_within_class(self, freqs):
        lengths = codeword_lengths_serial(np.asarray(freqs, dtype=np.int64))
        book = canonical_from_lengths(lengths)
        for l in range(1, book.max_length + 1):
            cls = np.sort(book.codes[book.lengths == l])
            if cls.size > 1:
                assert np.all(np.diff(cls.astype(np.int64)) == 1)


def _loop_canonical(lengths):
    """The per-class Python loop canonical_from_lengths used to rank
    symbols with, kept as the oracle for its array expression."""
    lengths = np.asarray(lengths, dtype=np.int32)
    used = np.flatnonzero(lengths > 0)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    if used.size == 0:
        return codes, np.zeros(1, np.int64), np.zeros(1, np.int64), used
    maxlen = int(lengths.max())
    counts = np.bincount(lengths[used], minlength=maxlen + 1)
    counts[0] = 0
    first = np.zeros(maxlen + 1, dtype=np.int64)
    entry = np.zeros(maxlen + 1, dtype=np.int64)
    code = 0
    for l in range(1, maxlen + 1):
        code = (code + int(counts[l - 1])) << 1
        first[l] = code
        entry[l] = entry[l - 1] + counts[l - 1]
    order = used[np.lexsort((used, lengths[used]))]
    within = np.zeros(order.size, dtype=np.int64)
    lens_sorted = lengths[order].astype(np.int64)
    for s in np.r_[0, np.flatnonzero(np.diff(lens_sorted)) + 1]:
        e = s
        while e < lens_sorted.size and lens_sorted[e] == lens_sorted[s]:
            e += 1
        within[s:e] = np.arange(e - s)
    codes[order] = (first[lens_sorted] + within).astype(np.uint64)
    return codes, first, entry, order


@st.composite
def length_vectors(draw):
    """Kraft-valid length vectors up to 40 bits deep: grow a chain by
    splitting the deepest leaf of a binary tree, split random leaves,
    drop some leaves (incomplete codes), add unused symbols, shuffle."""
    depths = [0]
    chain = [-1] * draw(st.integers(0, 40))
    for pick in chain + draw(st.lists(st.integers(0, 10**6), max_size=60)):
        i = int(np.argmax(depths)) if pick < 0 else pick % len(depths)
        if depths[i] < 40:
            d = depths.pop(i)
            depths += [d + 1, d + 1]
    keep = draw(st.lists(st.booleans(), min_size=len(depths),
                         max_size=len(depths)))
    lens = [d for d, k in zip(depths, keep) if k or d == 0]
    lens += [0] * draw(st.integers(0, 12))
    return np.asarray(draw(st.permutations(lens)), dtype=np.int32)


class TestCanonicalRankExpression:
    @staticmethod
    def _check(lengths):
        book = canonical_from_lengths(lengths)
        codes, first, entry, order = _loop_canonical(lengths)
        assert np.array_equal(book.codes, codes)
        assert np.array_equal(book.first, first)
        assert np.array_equal(book.entry, entry)
        assert np.array_equal(book.symbols_by_code, order)

    @given(length_vectors())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, lengths):
        self._check(lengths)

    @pytest.mark.parametrize("lengths", [
        [], [0, 0, 0], [1], [0, 0, 5, 0],
        list(range(1, 41)) + [40],
        [40] * 2 + list(range(39, 0, -1)) + [0, 0],
    ])
    def test_edge_vectors(self, lengths):
        self._check(np.asarray(lengths, dtype=np.int32))


class TestCodebookProperties:
    def test_average_bitwidth(self):
        book = canonical_from_lengths(np.array([1, 2, 2]))
        freqs = np.array([2, 1, 1])
        assert book.average_bitwidth(freqs) == pytest.approx(1.5)

    def test_encoded_bits(self):
        book = canonical_from_lengths(np.array([1, 2, 2]))
        assert book.encoded_bits(np.array([4, 2, 0])) == 8

    def test_lookup_vectorized(self):
        book = canonical_from_lengths(np.array([1, 2, 2]))
        codes, lens = book.lookup(np.array([0, 2, 1, 0]))
        assert lens.tolist() == [1, 2, 2, 1]
        assert codes.tolist() == [
            book.codes[0], book.codes[2], book.codes[1], book.codes[0]
        ]

    def test_prefix_free_detects_duplicates(self):
        book = canonical_from_lengths(np.array([2, 2]))
        bad = CanonicalCodebook(
            codes=np.array([1, 1], dtype=np.uint64),
            lengths=np.array([2, 2], dtype=np.int32),
            first=book.first, entry=book.entry,
            symbols_by_code=book.symbols_by_code,
        )
        assert not bad.is_prefix_free()

    def test_prefix_free_detects_prefix(self):
        book = canonical_from_lengths(np.array([1, 2]))
        bad = CanonicalCodebook(
            codes=np.array([0b0, 0b01], dtype=np.uint64),
            lengths=np.array([1, 2], dtype=np.int32),
            first=book.first, entry=book.entry,
            symbols_by_code=book.symbols_by_code,
        )
        assert not bad.is_prefix_free()

    def test_nbytes(self):
        book = canonical_from_lengths(np.array([1, 1]))
        assert book.nbytes() > 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CanonicalCodebook(
                codes=np.zeros(2, dtype=np.uint64),
                lengths=np.zeros(3, dtype=np.int32),
                first=np.zeros(1, dtype=np.int64),
                entry=np.zeros(1, dtype=np.int64),
                symbols_by_code=np.zeros(0, dtype=np.int64),
            )
