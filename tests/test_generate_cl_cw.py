"""Tests for the two-phase parallel codebook construction
(GenerateCL + GenerateCW) against the serial ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codebook_parallel import parallel_codebook
from repro.core.generate_cl import generate_cl
from repro.core.generate_cw import generate_cw
from repro.huffman.codebook import canonical_from_lengths
from repro.huffman.tree import codeword_lengths_serial

positive_hist = st.lists(st.integers(1, 10**6), min_size=1, max_size=300)
any_hist = st.lists(st.integers(0, 10**6), min_size=1, max_size=300)


class TestGenerateCL:
    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            generate_cl(np.array([5, 1]))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            generate_cl(np.array([0, 1]))

    def test_empty(self):
        res = generate_cl(np.array([], dtype=np.int64))
        assert res.lengths_sorted.size == 0
        assert res.rounds == 0

    def test_single_symbol(self):
        res = generate_cl(np.array([42]))
        assert res.lengths_sorted.tolist() == [1]

    def test_two_symbols(self):
        res = generate_cl(np.array([1, 9]))
        assert res.lengths_sorted.tolist() == [1, 1]

    def test_lengths_non_increasing(self, rng):
        f = np.sort(rng.integers(1, 10**6, 500))
        res = generate_cl(f)
        # sorted ascending by frequency => lengths non-increasing
        assert np.all(np.diff(res.lengths_sorted) <= 0)

    def test_rounds_track_height(self, rng):
        f = np.sort(rng.integers(1, 10**9, 4096))
        res = generate_cl(f)
        assert res.rounds == res.cost.meta["H"]

    def test_rounds_grow_logarithmically(self, rng):
        r_small = generate_cl(np.sort(rng.integers(1, 10**6, 256))).rounds
        r_large = generate_cl(np.sort(rng.integers(1, 10**6, 8192))).rounds
        # O(log n): 32x more symbols, far fewer than 32x more rounds
        assert r_large < r_small * 4

    @given(positive_hist)
    @settings(max_examples=150, deadline=None)
    def test_optimal_cost(self, freqs):
        f = np.sort(np.asarray(freqs, dtype=np.int64))
        res = generate_cl(f)
        opt = codeword_lengths_serial(f)
        assert int(np.sum(f * res.lengths_sorted)) == int(np.sum(f * opt))

    @given(positive_hist)
    @settings(max_examples=80, deadline=None)
    def test_kraft_equality(self, freqs):
        f = np.sort(np.asarray(freqs, dtype=np.int64))
        res = generate_cl(f)
        lens = res.lengths_sorted.astype(np.float64)
        if lens.size == 1:
            assert lens[0] == 1
        else:
            assert np.isclose(np.sum(2.0**-lens), 1.0)

    def test_pathological_exponential(self):
        """Fibonacci-like frequencies give maximal-depth trees."""
        f = np.sort(np.array([1, 1] + [2**k for k in range(1, 30)], dtype=np.int64))
        res = generate_cl(f)
        opt = codeword_lengths_serial(f)
        assert int(np.sum(f * res.lengths_sorted)) == int(np.sum(f * opt))
        assert res.lengths_sorted.max() >= 25

    def test_all_equal_frequencies(self):
        f = np.full(1000, 7, dtype=np.int64)
        res = generate_cl(f)
        opt = codeword_lengths_serial(f)
        assert int(np.sum(f * res.lengths_sorted)) == int(np.sum(f * opt))


def _pinned_histograms():
    rng = np.random.default_rng(2021)
    yield "uniform", np.sort(rng.integers(1, 10**6, 1024))
    z = rng.zipf(1.3, 200_000)
    z = np.bincount(z[z <= 4096])
    yield "zipf", np.sort(z[z > 0])
    spine = (1.8 ** np.arange(36)).astype(np.int64) + rng.integers(0, 3, 36)
    yield "geometric", np.sort(
        np.concatenate([rng.integers(1, 50, 200), spine]))
    yield "ties", np.full(777, 5, dtype=np.int64)


#: GenerateCL's structure on the histograms above, recorded from the
#: implementation that ran the Merge Path partition search every round;
#: ``length_counts[l]`` symbols get length l (sorted lengths are
#: non-increasing, so the counts pin the whole vector)
_PINNED = {
    "uniform": dict(
        length_counts=[0, 0, 0, 0, 0, 0, 0, 0, 0, 256, 377, 210, 90, 43,
                       27, 10, 7, 1, 1, 2],
        rounds=19, merge_elements=2018, max_queue=336,
        bytes_coalesced=265760.0, shared_atomics=1017.0,
        grid_syncs=76, compute_cycles=234920.0, H=19,
    ),
    "zipf": dict(
        length_counts=[0, 0, 1, 1, 2, 2, 5, 9, 12, 26, 41, 74, 103, 213,
                       331, 561, 1260, 988],
        rounds=18, merge_elements=7229, max_queue=671,
        bytes_coalesced=899528.0, shared_atomics=3618.0,
        grid_syncs=72, compute_cycles=797800.0, H=17,
    ),
    "geometric": dict(
        length_counts=[0] + [1] * 19 + [0, 2, 1, 1, 2, 1, 1, 1, 63, 81, 31,
                                        17, 7, 3, 6],
        rounds=34, merge_elements=428, max_queue=69,
        bytes_coalesced=103136.0, shared_atomics=227.0,
        grid_syncs=136, compute_cycles=88800.0, H=34,
    ),
    "ties": dict(
        length_counts=[0] * 9 + [247, 530],
        rounds=10, merge_elements=1539, max_queue=389,
        bytes_coalesced=117864.0, shared_atomics=775.0,
        grid_syncs=40, compute_cycles=108480.0, H=10,
    ),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_generate_cl_structure_pinned(name):
    freqs = dict(_pinned_histograms())[name]
    pin = _PINNED[name]
    res = generate_cl(freqs)
    counts = np.asarray(pin["length_counts"])
    lengths = np.repeat(np.arange(counts.size)[::-1], counts[::-1])
    assert np.array_equal(res.lengths_sorted, lengths)
    assert (res.rounds, res.merge_elements, res.max_queue) == (
        pin["rounds"], pin["merge_elements"], pin["max_queue"])
    cost = res.cost
    assert cost.bytes_coalesced == pin["bytes_coalesced"]
    assert cost.shared_atomics == pin["shared_atomics"]
    assert cost.grid_syncs == pin["grid_syncs"]
    assert cost.compute_cycles == pin["compute_cycles"]
    assert cost.launches == 1 and cost.bytes_random == 0.0
    assert cost.meta == {"rounds": pin["rounds"], "n": freqs.size,
                         "H": pin["H"],
                         "merge_elements": pin["merge_elements"],
                         "max_queue": pin["max_queue"]}


class TestGenerateCW:
    def _run(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        used = np.flatnonzero(freqs > 0)
        order = used[np.argsort(freqs[used], kind="stable")]
        cl = generate_cl(freqs[order])
        return generate_cw(cl.lengths_sorted, order, freqs.size)

    def test_first_entry_match_reference(self, rng):
        freqs = rng.integers(1, 1000, 128)
        res = self._run(freqs)
        ref = canonical_from_lengths(res.codebook.lengths)
        assert np.array_equal(res.codebook.first, ref.first)
        assert np.array_equal(res.codebook.entry, ref.entry)

    def test_codes_canonical_per_class(self, rng):
        freqs = rng.integers(1, 1000, 200)
        book = self._run(freqs).codebook
        ref = canonical_from_lengths(book.lengths)
        for l in range(1, book.max_length + 1):
            ours = np.sort(book.codes[book.lengths == l])
            theirs = np.sort(ref.codes[ref.lengths == l])
            assert np.array_equal(ours, theirs)

    def test_prefix_free(self, rng):
        freqs = rng.integers(1, 50, 64)
        assert self._run(freqs).codebook.is_prefix_free()

    def test_levels_counted(self, rng):
        freqs = rng.integers(1, 1000, 128)
        res = self._run(freqs)
        distinct = np.unique(res.codebook.lengths[res.codebook.lengths > 0])
        assert res.levels == distinct.size

    def test_empty_alphabet(self):
        res = generate_cw(np.empty(0, dtype=np.int32),
                          np.empty(0, dtype=np.int64), 4)
        assert res.codebook.n_used == 0

    def test_symbols_by_code_is_decode_order(self, rng):
        """symbols_by_code must list symbols by (length, canonical rank)."""
        freqs = rng.integers(1, 1000, 64)
        book = self._run(freqs).codebook
        lens = book.lengths[book.symbols_by_code]
        assert np.all(np.diff(lens) >= 0)
        codes = book.codes[book.symbols_by_code].astype(np.int64)
        for l in np.unique(lens):
            cls = codes[lens == l]
            assert np.all(np.diff(cls) == 1)


class TestParallelCodebookEndToEnd:
    @given(any_hist)
    @settings(max_examples=100, deadline=None)
    def test_optimal_and_valid(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        if np.count_nonzero(freqs) == 0:
            return
        res = parallel_codebook(freqs)
        book = res.codebook
        opt = codeword_lengths_serial(freqs)
        assert int(np.sum(freqs * book.lengths)) == int(np.sum(freqs * opt))
        assert book.is_prefix_free()
        assert np.all(book.lengths[freqs == 0] == 0)

    def test_costs_present(self, rng):
        res = parallel_codebook(rng.integers(1, 100, 256))
        assert [c.name for c in res.costs] == [
            "codebook.sort_histogram", "codebook.generate_cl",
            "codebook.generate_cw",
        ]

    def test_modeled_ms_positive(self, rng):
        from repro.cuda.device import V100

        res = parallel_codebook(rng.integers(1, 100, 256))
        assert res.modeled_ms(V100) > 0

    def test_deterministic(self, rng):
        freqs = rng.integers(0, 100, 512)
        b1 = parallel_codebook(freqs).codebook
        b2 = parallel_codebook(freqs).codebook
        assert np.array_equal(b1.codes, b2.codes)

    def test_scaling_observation_table3(self, rng):
        """Parallel construction scales ~O(log n): going 1024 -> 8192
        symbols must grow modeled time far less than the serial baseline's
        O(n log n)."""
        from repro.baselines.serial_gpu_codebook import serial_gpu_codebook
        from repro.cuda.device import V100

        f1 = rng.integers(1, 10**6, 1024)
        f8 = rng.integers(1, 10**6, 8192)
        ours_ratio = (parallel_codebook(f8).modeled_ms(V100)
                      / parallel_codebook(f1).modeled_ms(V100))
        cusz_ratio = (serial_gpu_codebook(f8).modeled_ms(V100)
                      / serial_gpu_codebook(f1).modeled_ms(V100))
        assert ours_ratio < 3.0
        assert cusz_ratio > 8.0
