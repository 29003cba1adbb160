"""Real wall-clock throughput of the host fast paths.

Everything else under :mod:`repro.perf` prices *modeled* GPU kernels; this
module times the code that actually runs: the vectorized encoder
(reduce-shuffle-merge with scatter packing) and the three decoders — the
scalar treeless reference, the table-driven batch lane decoder, and the
two-pass gap-array decoder — on paper-dataset surrogates.  The measured
batch/scalar and gap/lanes ratios are the PR-level acceptance numbers
recorded in ``BENCH_wallclock.json``.

Timing is routed through the observability layer: each measured region
runs under a :class:`repro.obs.Tracer` span (``bench.encode``,
``bench.decode_batch``, ``bench.decode_scalar``) and best-of-N is taken
over span durations, so the harness has no hand-rolled timing loop and
``--trace out.json`` drops the whole run — bench envelopes plus every
pipeline stage span plus the metrics dump — into one Perfetto-loadable
file.  Cache hit/miss counts per run are recorded in the
``BENCH_wallclock.json`` artifact.

Every run also appends one line — git rev, per-dataset MB/s for every
path, speedup ratios, cache/fallback counters — to the longitudinal
``benchmarks/results/BENCH_history.jsonl`` (``--no-history`` opts out);
``--sentinel`` additionally gates the run against the rolling baseline
via :mod:`repro.perf.history` and exits non-zero on a statistically
meaningful throughput regression.

Run it as a script (``repro-bench`` console entry point)::

    repro-bench --size 1048576 --repeats 5 --json out.json --trace t.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.bitstream import decode_stream, decode_stream_scalar
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.datasets.registry import get_dataset
from repro.histogram.gpu_histogram import gpu_histogram
from repro.huffman.cache import (
    cached_decode_table,
    codebook_cache,
    decode_table_cache,
)
from repro.obs import metrics as obs_metrics
from repro.obs.export import stage_summary, write_chrome_trace, write_jsonl
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.perf.report import render_table

__all__ = [
    "WallclockResult",
    "run_wallclock",
    "run_serve_bench",
    "run_codebooks_bench",
    "run_table_bench",
    "TABLE_BENCH_SCENARIOS",
    "wallclock_table",
    "main",
]

#: datasets the harness times by default: a text-like byte alphabet and a
#: quantization-code alphabet (the paper's two workload families)
DEFAULT_DATASETS = ("enwik8", "nyx_quant")
DEFAULT_SIZE = 1 << 20
DEFAULT_REPEATS = 5


@dataclass(frozen=True)
class WallclockResult:
    """Best-of-N wall-clock numbers for one dataset surrogate."""

    dataset: str
    input_bytes: int
    n_symbols: int
    compressed_bytes: int
    encode_s: float
    decode_scalar_s: float
    decode_batch_s: float
    #: the gap-array decoder (``strategy="gap"``), timed in its own
    #: best-of-N block right after the lane decoder; 0.0 when the run
    #: skipped it (book outside gap range)
    decode_gap_s: float = 0.0
    #: which gap backend the timed runs used ("native" or "numpy")
    gap_backend: str = ""
    #: decode-table + codebook cache activity during this run (digest
    #: lookups are part of any steady-state deployment, so they are
    #: measured and recorded alongside the timings)
    cache_hits: int = 0
    cache_misses: int = 0
    #: the scan-pack fast path (``impl="scan"``, the default encoder),
    #: timed in its own sequential best-of-N block right after the
    #: iterative reference so the two numbers see the same cache state
    encode_scan_s: float = 0.0
    #: the njit kernel backend driving the same scan-pack encode /
    #: batch decode; 0.0 when numba is not importable (the pure-Python
    #: sim is correctness-only — timing it would be meaningless)
    encode_njit_s: float = 0.0
    decode_njit_s: float = 0.0
    #: which kernel backend the njit columns used ("njit" when timed,
    #: "" when skipped)
    kernel_backend: str = ""
    #: per-stage wall time (ms) of one traced encode per implementation:
    #: ``{"iterative": {"encode.lookup": ..., ...}, "scan": {...}}``
    encode_stages: dict = field(default_factory=dict)

    @property
    def encode_mb_s(self) -> float:
        return self.input_bytes / self.encode_s / 1e6

    @property
    def encode_scan_mb_s(self) -> float:
        if not self.encode_scan_s:
            return 0.0
        return self.input_bytes / self.encode_scan_s / 1e6

    @property
    def encode_speedup(self) -> float:
        """scan-pack over the iterative reference (the PR-level number)."""
        if not self.encode_scan_s:
            return 1.0
        return self.encode_s / self.encode_scan_s

    @property
    def decode_scalar_mb_s(self) -> float:
        return self.input_bytes / self.decode_scalar_s / 1e6

    @property
    def decode_batch_mb_s(self) -> float:
        return self.input_bytes / self.decode_batch_s / 1e6

    @property
    def decode_speedup(self) -> float:
        return self.decode_scalar_s / self.decode_batch_s

    @property
    def decode_gap_mb_s(self) -> float:
        if not self.decode_gap_s:
            return 0.0
        return self.input_bytes / self.decode_gap_s / 1e6

    @property
    def decode_speedup_gap(self) -> float:
        """gap-array decoder over the lock-step lane decoder (PR bar)."""
        if not self.decode_gap_s:
            return 1.0
        return self.decode_batch_s / self.decode_gap_s

    @property
    def encode_njit_mb_s(self) -> float:
        if not self.encode_njit_s:
            return 0.0
        return self.input_bytes / self.encode_njit_s / 1e6

    @property
    def decode_njit_mb_s(self) -> float:
        if not self.decode_njit_s:
            return 0.0
        return self.input_bytes / self.decode_njit_s / 1e6

    @property
    def encode_njit_speedup(self) -> float:
        """njit scan-pack over the numpy scan-pack (the backend gate:
        must stay >= 1.0 wherever numba is installed)."""
        if not self.encode_njit_s or not self.encode_scan_s:
            return 1.0
        return self.encode_scan_s / self.encode_njit_s

    @property
    def decode_njit_speedup(self) -> float:
        """njit batch decode over the numpy batch decode."""
        if not self.decode_njit_s:
            return 1.0
        return self.decode_batch_s / self.decode_njit_s

    def to_dict(self) -> dict:
        d = asdict(self)
        d.update(
            encode_mb_s=round(self.encode_mb_s, 2),
            encode_scan_mb_s=round(self.encode_scan_mb_s, 2),
            encode_speedup=round(self.encode_speedup, 2),
            decode_scalar_mb_s=round(self.decode_scalar_mb_s, 3),
            decode_batch_mb_s=round(self.decode_batch_mb_s, 2),
            decode_speedup=round(self.decode_speedup, 1),
            decode_gap_mb_s=round(self.decode_gap_mb_s, 2),
            decode_speedup_gap=round(self.decode_speedup_gap, 2),
            encode_njit_mb_s=round(self.encode_njit_mb_s, 2),
            decode_njit_mb_s=round(self.decode_njit_mb_s, 2),
            encode_njit_speedup=round(self.encode_njit_speedup, 2),
            decode_njit_speedup=round(self.decode_njit_speedup, 2),
        )
        return d


def _timed_best(
    tracer: Tracer, name: str, fn: Callable[[], object], repeats: int,
    **attrs,
) -> float:
    """Best-of-N wall time of ``fn``, measured via tracer spans.

    This *is* the harness timing loop: each repeat runs under a
    ``bench.*`` span, so a traced run records every repeat (and its
    nested pipeline-stage spans) while the returned best-of-N stays the
    acceptance number.
    """
    best = float("inf")
    for i in range(repeats):
        with tracer.span(name, repeat=i, **attrs) as sp:
            fn()
        best = min(best, sp.duration_s)
    return best


def _cache_info() -> tuple[int, int]:
    a, b = decode_table_cache().info(), codebook_cache().info()
    return a.hits + b.hits, a.misses + b.misses


def _encode_stage_breakdown(data, book) -> dict:
    """One traced encode per implementation; per-stage times in ms.

    Each encode runs under a private :class:`Tracer`, so the nested
    ``encode.*`` pipeline-stage spans (lookup, reduce/shuffle or
    scan-pack, breaking extraction, coalesce, tail pack) are captured
    regardless of whether the bench itself is traced.  The dict lands in
    ``BENCH_wallclock.json`` so a regression in any single stage is
    visible without re-running with ``--trace``.
    """
    out: dict[str, dict] = {}
    for impl in ("iterative", "scan"):
        t = Tracer(f"bench-stages-{impl}")
        prev = set_tracer(t)
        try:
            gpu_encode(data, book, impl=impl)
        finally:
            set_tracer(prev)
        stages: dict[str, float] = {}
        for sp in t.spans:
            if sp.name.startswith("encode."):
                stages[sp.name] = round(
                    stages.get(sp.name, 0.0) + sp.duration_s * 1e3, 3
                )
        out[impl] = stages
    return out


def run_wallclock(
    dataset: str,
    size_bytes: int = DEFAULT_SIZE,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 2021,
    tracer: Tracer | None = None,
) -> WallclockResult:
    """Time encode + both decode paths on one dataset surrogate.

    ``tracer=None`` uses the global tracer when one is installed (the
    ``--trace`` path), otherwise a private :class:`Tracer` that exists
    only to measure span durations.
    """
    if tracer is None:
        installed = get_tracer()
        tracer = installed if installed.enabled else Tracer("repro-bench")
    ds = get_dataset(dataset)
    rng = np.random.default_rng(seed)
    data, _scale = ds.generate(size_bytes, rng)
    data = np.asarray(data)
    hits0, misses0 = _cache_info()

    hist = gpu_histogram(data, ds.n_symbols)
    book = parallel_codebook(hist.histogram).codebook
    table = cached_decode_table(book)  # warm, as in any steady-state use

    enc = gpu_encode(data, book, impl="iterative")
    ref = decode_stream_scalar(enc.stream, book)
    fast = decode_stream(enc.stream, book, table=table, strategy="batch")
    if not np.array_equal(ref, fast) or not np.array_equal(fast, data):
        raise AssertionError(f"decoder mismatch on {dataset}")
    # the gap decoder's throughput only counts if its output is
    # bit-identical to the lane decoder's on the same container
    gap_out = decode_stream(enc.stream, book, table=table, strategy="gap")
    if not np.array_equal(gap_out, fast):
        raise AssertionError(f"gap decoder mismatch on {dataset}")
    from repro.decoder.gap_native import native_available

    gap_backend = "native" if native_available() else "numpy"
    # the scan-pack fast path must serialize to the identical container
    # before its throughput number means anything
    from repro.core.serialization import serialize_stream

    enc_scan = gpu_encode(data, book, impl="scan")
    if serialize_stream(enc_scan.stream, book) != \
            serialize_stream(enc.stream, book):
        raise AssertionError(f"scan-pack container divergence on {dataset}")

    # njit kernel-backend columns: timed only with real numba (the
    # pure-Python sim covers correctness, not speed), and only after the
    # same byte-identity checks every other column clears
    from repro.backends import njit_compiled

    time_njit = njit_compiled()
    if time_njit:
        enc_njit = gpu_encode(data, book, impl="scan", backend="njit")
        if serialize_stream(enc_njit.stream, book) != \
                serialize_stream(enc.stream, book):
            raise AssertionError(f"njit container divergence on {dataset}")
        njit_out = decode_stream(
            enc.stream, book, table=table, strategy="batch", backend="njit"
        )
        if not np.array_equal(njit_out, fast):
            raise AssertionError(f"njit decoder mismatch on {dataset}")

    # sequential best-of-N blocks, iterative first then scan: each impl
    # is timed back-to-back so the two numbers see the same cache/page
    # state and the ratio is an honest like-for-like speedup
    encode_s = _timed_best(
        tracer, "bench.encode",
        lambda: gpu_encode(data, book, impl="iterative"),
        repeats, dataset=dataset, impl="iterative",
    )
    encode_scan_s = _timed_best(
        tracer, "bench.encode_scan",
        lambda: gpu_encode(data, book, impl="scan"),
        repeats, dataset=dataset, impl="scan",
    )
    # the batch path goes through the digest-keyed table cache exactly as
    # a steady-state deployment would: every repeat is a cache hit
    batch_s = _timed_best(
        tracer, "bench.decode_batch",
        lambda: decode_stream(enc.stream, book, strategy="batch"),
        repeats, dataset=dataset,
    )
    gap_s = _timed_best(
        tracer, "bench.decode_gap",
        lambda: decode_stream(enc.stream, book, strategy="gap"),
        repeats, dataset=dataset, backend=gap_backend,
    )
    encode_njit_s = 0.0
    decode_njit_s = 0.0
    if time_njit:
        encode_njit_s = _timed_best(
            tracer, "bench.encode_njit",
            lambda: gpu_encode(data, book, impl="scan", backend="njit"),
            repeats, dataset=dataset, impl="scan", backend="njit",
        )
        decode_njit_s = _timed_best(
            tracer, "bench.decode_njit",
            lambda: decode_stream(enc.stream, book, strategy="batch",
                                  backend="njit"),
            repeats, dataset=dataset, backend="njit",
        )
    # the scalar reference is ~25x slower; cap its repeats to keep the
    # harness quick while still taking a best-of
    scalar_s = _timed_best(
        tracer, "bench.decode_scalar",
        lambda: decode_stream_scalar(enc.stream, book),
        max(2, repeats // 2), dataset=dataset,
    )
    hits1, misses1 = _cache_info()
    return WallclockResult(
        dataset=dataset,
        input_bytes=int(data.nbytes),
        n_symbols=int(ds.n_symbols),
        compressed_bytes=int(
            enc.stream.payload_bytes + enc.stream.metadata_bytes
        ),
        encode_s=encode_s,
        encode_scan_s=encode_scan_s,
        encode_stages=_encode_stage_breakdown(data, book),
        decode_scalar_s=scalar_s,
        decode_batch_s=batch_s,
        decode_gap_s=gap_s,
        gap_backend=gap_backend,
        encode_njit_s=encode_njit_s,
        decode_njit_s=decode_njit_s,
        kernel_backend="njit" if time_njit else "",
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
    )


#: deep-book decode scenarios timed by ``run_table_bench``: the regime
#: where codewords exceed the flat 2^16 host index and decode must run
#: either the tiered table or the scalar First/Entry fallback
TABLE_BENCH_SCENARIOS = ("genomics", "large_alphabet")


def _table_bench_input(scenario: str, n_symbols: int, seed: int):
    """Data + codebook for one deep-book scenario.

    ``genomics`` mirrors the paper's gbbct1.seq use case: k=4 DNA k-mer
    symbols (alphabet 11^4 = 14641) whose add-one-smoothed histogram over
    a 2^18-symbol sample yields a *natural* book with ``max_length > 16``
    — the rare ambiguity-bearing k-mers land past the flat host index.
    ``large_alphabet`` is the crafted worst case: the conformance deep
    book (4096 codewords at 19 bits), drawn uniformly so nearly every
    window needs a deep lookup.
    """
    rng = np.random.default_rng(seed)
    if scenario == "genomics":
        from repro.datasets.genomics import (
            generate_dna,
            kmer_alphabet_size,
            kmer_symbolize,
        )

        k = 4
        seq = generate_dna(k * (1 << 18), rng, ambiguity_rate=0.02)
        syms = kmer_symbolize(seq, k)
        alpha = kmer_alphabet_size(k)
        hist = np.bincount(syms.astype(np.int64), minlength=alpha) + 1
        book = parallel_codebook(hist.astype(np.int64)).codebook
        data = syms[:n_symbols].astype(np.uint16)
    elif scenario == "large_alphabet":
        from repro.conform.corpora import deep_codebook

        book = deep_codebook()
        data = rng.integers(0, book.n_symbols, n_symbols).astype(np.uint16)
    else:
        raise ValueError(
            f"unknown table-bench scenario {scenario!r}; "
            f"known: {TABLE_BENCH_SCENARIOS}"
        )
    return data, book


def run_table_bench(
    scenario: str,
    n_symbols: int = 1 << 16,
    repeats: int = 3,
    seed: int = 2021,
    tracer: Tracer | None = None,
) -> dict:
    """Time deep-book batch decode: flat-table fallback vs tiered table.

    Both paths decode the *same* chunked container; the flat 2^16 table
    cannot express the deep codewords, so its lanes drop to the scalar
    First/Entry fallback (the pre-tiered behavior), while the tiered
    table resolves every window through gathers.  The run aborts unless
    both outputs are byte-identical to the input, and unless the tiered
    decode takes **zero** LUT fallbacks.  The returned dict — stored
    under ``"tables"`` in ``BENCH_wallclock.json`` — carries both
    timings, the table memory footprints, and the fallback/subtable
    counter deltas.  When the native C gap kernel compiled, the same
    tiered table is also timed on the gap route
    (``decode_gap_native_mb_s``, ``None`` otherwise), which must decode
    identically and count its subtable gathers (``subtable_gathers_gap``).
    """
    from repro.decoder.gap_native import native_available
    from repro.huffman.decoder import (
        build_decode_table,
        build_tiered_decode_table,
    )

    if tracer is None:
        installed = get_tracer()
        tracer = installed if installed.enabled else Tracer("repro-bench")
    data, book = _table_bench_input(scenario, n_symbols, seed)
    flat16 = build_decode_table(book, 16)
    tiered = build_tiered_decode_table(book)
    stream = gpu_encode(data, book, magnitude=10).stream

    reg = obs_metrics()
    fb0 = int(reg.total("repro_decode_lut_fallback_total"))
    sub0 = int(reg.total("repro_decode_subtable_gather_total"))
    out_tier = decode_stream(stream, book, table=tiered, strategy="batch")
    fb_tier = int(reg.total("repro_decode_lut_fallback_total")) - fb0
    sub_tier = int(reg.total("repro_decode_subtable_gather_total")) - sub0
    out_flat = decode_stream(stream, book, table=flat16, strategy="batch")
    fb_flat = (
        int(reg.total("repro_decode_lut_fallback_total")) - fb0 - fb_tier
    )
    if not np.array_equal(out_tier, data) or \
            not np.array_equal(out_flat, out_tier):
        raise AssertionError(f"tiered/flat decode mismatch on {scenario}")
    if fb_tier:
        raise AssertionError(
            f"tiered decode took {fb_tier} LUT fallbacks on {scenario}"
        )

    flat_s = _timed_best(
        tracer, "bench.decode_table_flat",
        lambda: decode_stream(stream, book, table=flat16,
                              strategy="batch"),
        repeats, scenario=scenario,
    )
    tiered_s = _timed_best(
        tracer, "bench.decode_table_tiered",
        lambda: decode_stream(stream, book, table=tiered,
                              strategy="batch"),
        repeats, scenario=scenario,
    )
    input_bytes = int(data.nbytes)
    gap_mb_s = sub_gap = None
    if native_available():
        g0 = int(reg.total("repro_decode_subtable_gather_total", path="gap"))
        out_gap = decode_stream(stream, book, table=tiered, strategy="gap")
        sub_gap = int(
            reg.total("repro_decode_subtable_gather_total", path="gap")
        ) - g0
        if not np.array_equal(out_gap, data) or not sub_gap:
            raise AssertionError(f"native gap route mismatch on {scenario}")
        gap_s = _timed_best(
            tracer, "bench.decode_table_gap_native",
            lambda: decode_stream(stream, book, table=tiered,
                                  strategy="gap"),
            repeats, scenario=scenario,
        )
        gap_mb_s = round(input_bytes / gap_s / 1e6, 2)
    return {
        "scenario": scenario,
        "n_symbols": int(data.size),
        "input_bytes": input_bytes,
        "alphabet": int(book.n_symbols),
        "max_length": int(book.max_length),
        "table_bytes": {
            "flat16": int(flat16.nbytes()),
            "tiered": int(tiered.nbytes()),
            "tiered_pct": round(
                100.0 * tiered.nbytes() / flat16.nbytes(), 2
            ),
        },
        "decode_flat_s": flat_s,
        "decode_tiered_s": tiered_s,
        "decode_flat_mb_s": round(input_bytes / flat_s / 1e6, 2),
        "decode_tiered_mb_s": round(input_bytes / tiered_s / 1e6, 2),
        "tiered_speedup": round(flat_s / tiered_s, 2),
        "lut_fallbacks_flat": fb_flat,
        "lut_fallbacks_tiered": fb_tier,
        "subtable_gathers": sub_tier,
        "decode_gap_native_mb_s": gap_mb_s,
        "subtable_gathers_gap": sub_gap,
    }


def run_serve_bench(
    n_clients: int = 8,
    requests_per_client: int = 25,
    size_symbols: int = 8192,
    n_distributions: int = 3,
    queue_size: int = 128,
    max_batch: int = 16,
    max_delay_ms: float = 4.0,
    seed: int = 2021,
) -> dict:
    """Load-generate against an in-process :class:`CompressionService`.

    ``n_clients`` threads each fire ``requests_per_client`` mixed
    compress→decompress round trips over ``n_distributions`` symbol
    distributions (so the micro-batcher has real coalescing
    opportunities), recording per-request latency.  The returned dict —
    stored under ``"serve"`` in ``BENCH_wallclock.json`` — carries the
    p50/p99 latencies, the shed rate, the mean batch size, and the
    corruption count (which must be zero).
    """
    import threading
    import time as _time

    from repro.serve.queue import DeadlineExceeded, QueueFullError
    from repro.serve.service import CompressionService, ServiceConfig

    rng = np.random.default_rng(seed)
    datasets = [
        rng.choice(
            256, size=size_symbols,
            p=rng.dirichlet(np.ones(256) * 0.15),
        ).astype(np.uint16)
        for _ in range(n_distributions)
    ]
    latencies: list[float] = []
    lat_lock = threading.Lock()
    shed = [0]
    corrupt = [0]
    errors = [0]

    cfg = ServiceConfig(
        queue_size=queue_size, max_batch=max_batch,
        max_delay_s=max_delay_ms / 1e3,
    )

    def client(cid: int, svc: CompressionService) -> None:
        local_lat = []
        for i in range(requests_per_client):
            arr = datasets[(cid + i) % len(datasets)]
            t0 = _time.perf_counter()
            try:
                blob, _report = svc.compress(arr)
                back = svc.decompress(blob)
            except (QueueFullError, DeadlineExceeded):
                with lat_lock:
                    shed[0] += 1
                continue
            except Exception:  # noqa: BLE001 - counted, not raised
                with lat_lock:
                    errors[0] += 1
                continue
            local_lat.append(_time.perf_counter() - t0)
            if not np.array_equal(back, arr):
                with lat_lock:
                    corrupt[0] += 1
        with lat_lock:
            latencies.extend(local_lat)

    t_start = _time.perf_counter()
    with CompressionService(cfg) as svc:
        threads = [
            threading.Thread(target=client, args=(c, svc), daemon=True)
            for c in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = svc.stats()
    wall_s = _time.perf_counter() - t_start

    total = n_clients * requests_per_client
    lat = np.sort(np.asarray(latencies)) if latencies else np.zeros(1)
    return {
        "clients": n_clients,
        "requests": total,
        "completed": len(latencies),
        "shed": shed[0],
        "errors": errors[0],
        "corrupt_roundtrips": corrupt[0],
        "shed_rate": round(shed[0] / total, 4),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(latencies) / wall_s, 1),
        "latency_p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
        "latency_p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
        "mean_batch_size": stats["batches"]["mean_size"],
        "cache_hit_rate": stats["caches"]["codebook"]["hit_rate"],
        "config": {
            "queue_size": queue_size,
            "max_batch": max_batch,
            "max_delay_ms": max_delay_ms,
            "size_symbols": size_symbols,
            "n_distributions": n_distributions,
        },
    }


def run_codebooks_bench(
    n_requests: int = 64,
    size_symbols: int = 8192,
    alphabet: int = 1024,
    queue_size: int = 256,
    max_batch: int = 16,
    max_delay_ms: float = 4.0,
    n_shards: int = 2,
    seed: int = 2021,
) -> dict:
    """Amortized throughput of the codebook-registry fast path.

    Two phases over the *same* nyx_quant-style payloads (fresh geometric
    draws, uint16, ``alphabet`` symbols):

    - **cold** — every request carries only ``num_symbols``, so each
      distinct empirical histogram forms its own batch key and pays the
      full histogram → sort → codebook → canonize pipeline;
    - **hot** — every request carries the ``codebook_id`` of one
      pre-registered book, so the batcher coalesces them all onto the
      ``("c", "cb", id, magnitude)`` key and the shards run the
      single-stage encoder (no histogram span, no codebook span).

    Each phase gets its own :class:`CompressionService` (so the mean
    batch size is per-phase), submits every request before awaiting any
    future (so the micro-batcher sees a real backlog and forms
    ``>= 8``-size batches), and is timed submit→last-result only.  The
    returned dict — stored under ``"codebooks"`` in
    ``BENCH_wallclock.json`` and merged into the history line — carries
    per-phase MB/s, the amortized speedup, and the registry hit/miss
    counters.
    """
    import time as _time

    from repro.codebooks.registry import (
        CodebookRegistry,
        set_process_registry,
    )
    from repro.serve.service import CompressionService, ServiceConfig

    rng = np.random.default_rng(seed)
    reference = (
        rng.geometric(0.3, 1 << 16).clip(0, alphabet - 1).astype(np.uint16)
    )
    # add-one smoothing: the registered book must cover the full declared
    # alphabet, exactly as POST /codebooks builds it
    hist = np.bincount(reference.astype(np.int64), minlength=alphabet) + 1
    book = parallel_codebook(hist).codebook
    payloads = [
        rng.geometric(0.3, size_symbols)
        .clip(0, alphabet - 1)
        .astype(np.uint16)
        for _ in range(n_requests)
    ]
    total_bytes = sum(int(p.nbytes) for p in payloads)

    cfg = ServiceConfig(
        queue_size=queue_size, max_batch=max_batch,
        max_delay_s=max_delay_ms / 1e3, n_shards=n_shards,
    )
    reg = obs_metrics()

    def _phase(**submit_kw) -> tuple[dict, list[bytes]]:
        with CompressionService(cfg) as svc:
            t0 = _time.perf_counter()
            futures = [
                svc.submit_compress(p, **submit_kw) for p in payloads
            ]
            blobs = [f.result(120.0)[0] for f in futures]
            wall = _time.perf_counter() - t0
            mean_batch = svc.batcher.mean_batch_size
        return {
            "wall_s": round(wall, 4),
            "mb_s": round(total_bytes / wall / 1e6, 2),
            "throughput_rps": round(n_requests / wall, 1),
            "mean_batch_size": round(mean_batch, 3),
        }, blobs

    registry = CodebookRegistry()
    prev = set_process_registry(registry)
    try:
        entry = registry.register(book, name="bench", source="bench")
        hits0 = int(reg.total("repro_codebook_registry_hits_total"))
        misses0 = int(reg.total("repro_codebook_registry_misses_total"))
        cold, cold_blobs = _phase(num_symbols=alphabet)
        hot, hot_blobs = _phase(codebook_id=entry.codebook_id)
        hits1 = int(reg.total("repro_codebook_registry_hits_total"))
        misses1 = int(reg.total("repro_codebook_registry_misses_total"))
        # correctness guard: a hot container must still round-trip
        with CompressionService(cfg) as svc:
            back = svc.decompress(hot_blobs[-1])
        corrupt = int(not np.array_equal(back, payloads[-1]))
        info = registry.info()
    finally:
        set_process_registry(prev)

    return {
        "requests": n_requests,
        "payload_bytes": total_bytes,
        "codebook_id": entry.codebook_id,
        "cold": cold,
        "hot": hot,
        "amortized_speedup": round(cold["wall_s"] / hot["wall_s"], 2),
        "registry_hits": hits1 - hits0,
        "registry_misses": misses1 - misses0,
        "registry": info,
        "corrupt_roundtrips": corrupt,
        "config": {
            "size_symbols": size_symbols,
            "alphabet": alphabet,
            "queue_size": queue_size,
            "max_batch": max_batch,
            "max_delay_ms": max_delay_ms,
            "n_shards": n_shards,
        },
    }


def wallclock_table(results: Sequence[WallclockResult]) -> str:
    # the per-backend columns only render when some run timed them
    with_njit = any(r.encode_njit_s for r in results)
    rows = [
        [
            r.dataset,
            r.input_bytes // 1024,
            r.encode_mb_s,
            r.encode_scan_mb_s,
            round(r.encode_speedup, 2),
            r.decode_scalar_mb_s,
            r.decode_batch_mb_s,
            r.decode_gap_mb_s,
            round(r.decode_speedup_gap, 2),
        ]
        + (
            [r.encode_njit_mb_s, r.decode_njit_mb_s,
             round(r.encode_njit_speedup, 2)]
            if with_njit else []
        )
        for r in results
    ]
    headers = [
        "dataset", "KiB", "enc iter MB/s", "enc scan MB/s", "enc x",
        "dec scalar MB/s", "dec lanes MB/s", "dec gap MB/s", "gap x",
    ]
    if with_njit:
        headers += ["enc njit MB/s", "dec njit MB/s", "njit x"]
    return render_table(
        headers,
        rows,
        title="Wall-clock fast paths (measured, this host)",
    )


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="measure real encode/decode wall-clock throughput",
    )
    ap.add_argument("--datasets", nargs="+", default=list(DEFAULT_DATASETS))
    ap.add_argument("--size", type=int, default=DEFAULT_SIZE,
                    help="surrogate size in bytes (default 1 MiB)")
    ap.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    ap.add_argument("--json", type=str, default=None,
                    help="also write results as JSON to this path")
    ap.add_argument("--trace", type=str, default=None,
                    help="write the full traced run (bench envelopes + "
                         "pipeline stage spans + metrics) to this path; "
                         "'.jsonl' suffix selects the JSONL span log, "
                         "anything else a Chrome trace")
    ap.add_argument("--serve", action="store_true",
                    help="also run the serving-layer load generator "
                         "(queue -> micro-batcher -> shards) and record "
                         "p50/p99 latency + shed rate in the JSON artifact")
    ap.add_argument("--serve-clients", type=int, default=8)
    ap.add_argument("--serve-requests", type=int, default=25,
                    help="requests per client")
    ap.add_argument("--codebooks", action="store_true",
                    help="also run the codebook-registry amortized "
                         "throughput bench (cold per-request codebook "
                         "builds vs hot pre-registered codebook_id "
                         "requests) and record the speedup + registry "
                         "hit/miss counters in the JSON artifact and "
                         "the history line")
    ap.add_argument("--codebooks-requests", type=int, default=64,
                    help="requests per phase of the codebooks bench")
    ap.add_argument("--tables", action="store_true",
                    help="also run the deep-book decode-table bench "
                         "(flat-table First/Entry fallback vs tiered "
                         "two-level table on the genomics and "
                         "large-alphabet scenarios) and record timings, "
                         "table bytes and fallback counters in the JSON "
                         "artifact and the history line")
    ap.add_argument("--conform", action="store_true",
                    help="also run the conformance smoke matrix and "
                         "surface its cell counts (pairs x corpora, "
                         "pass/fail) alongside the throughput table")
    ap.add_argument("--history", type=str,
                    default="benchmarks/results/BENCH_history.jsonl",
                    help="append this run (git rev + per-dataset MB/s + "
                         "cache/fallback counters) to the JSONL history")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append this run to the history file")
    ap.add_argument("--sentinel", action="store_true",
                    help="gate this run against the rolling baseline of "
                         "the history before appending; exit 1 on a "
                         "meaningful throughput regression")
    args = ap.parse_args(argv)

    tracer: Tracer | None = None
    prev = None
    if args.trace:
        tracer = Tracer("repro-bench")
        prev = set_tracer(tracer)
    try:
        results = [
            run_wallclock(name, args.size, args.repeats, tracer=tracer)
            for name in args.datasets
        ]
    finally:
        if args.trace:
            set_tracer(prev)
    print(wallclock_table(results))
    serve_doc = None
    if args.serve:
        serve_doc = run_serve_bench(
            n_clients=args.serve_clients,
            requests_per_client=args.serve_requests,
        )
        print()
        print("serving layer (in-process load generator):")
        print(f"  {serve_doc['completed']}/{serve_doc['requests']} round "
              f"trips, {serve_doc['throughput_rps']} rps, "
              f"p50 {serve_doc['latency_p50_ms']} ms / "
              f"p99 {serve_doc['latency_p99_ms']} ms, "
              f"shed rate {serve_doc['shed_rate']}, "
              f"mean batch {serve_doc['mean_batch_size']}")
        if serve_doc["corrupt_roundtrips"]:
            print("  WARNING: corrupt round trips detected!")
    codebooks_doc = None
    if args.codebooks:
        codebooks_doc = run_codebooks_bench(
            n_requests=args.codebooks_requests,
        )
        print()
        print("codebook registry fast path (amortized, in-process):")
        print(f"  cold {codebooks_doc['cold']['mb_s']} MB/s "
              f"(mean batch {codebooks_doc['cold']['mean_batch_size']}) "
              f"vs hot {codebooks_doc['hot']['mb_s']} MB/s "
              f"(mean batch {codebooks_doc['hot']['mean_batch_size']}): "
              f"{codebooks_doc['amortized_speedup']}x amortized")
        print(f"  registry hits {codebooks_doc['registry_hits']}, "
              f"misses {codebooks_doc['registry_misses']}")
        if codebooks_doc["corrupt_roundtrips"]:
            print("  WARNING: corrupt round trips detected!")
    tables_doc = None
    if args.tables:
        tables_doc = {
            s: run_table_bench(s) for s in TABLE_BENCH_SCENARIOS
        }
        print()
        print("deep-book decode tables (flat fallback vs tiered batch, "
              "plus the native gap route):")
        for s, row in tables_doc.items():
            tb = row["table_bytes"]
            print(f"  {s}: alphabet {row['alphabet']}, "
                  f"max_length {row['max_length']}; "
                  f"dec flat {row['decode_flat_mb_s']} MB/s "
                  f"({row['lut_fallbacks_flat']} fallbacks) vs "
                  f"tiered {row['decode_tiered_mb_s']} MB/s "
                  f"({row['tiered_speedup']}x); "
                  f"native gap {row['decode_gap_native_mb_s']} MB/s "
                  f"({row['subtable_gathers_gap']} gathers); "
                  f"table {tb['tiered']} B vs flat16 {tb['flat16']} B "
                  f"({tb['tiered_pct']}%)")
    conform_doc = None
    if args.conform:
        from repro.conform.matrix import run_matrix

        report = run_matrix(smoke=True, with_fuzz=False, shrink=False)
        s = report.summary()
        conform_doc = {**s, "elapsed_s": round(report.elapsed_s, 3)}
        print()
        print("conformance smoke matrix:")
        print(f"  {s['pairs']} encoder x decoder pairs over "
              f"{s['corpora']} corpora = {s['cells']} cells "
              f"({report.elapsed_s:.1f}s)")
        print(f"  samples: {s['samples_passed']} passed, "
              f"{s['samples_failed']} failed, "
              f"{s['samples_skipped']} skipped; "
              f"invariants failed: {s['invariants_failed']}")
        if not report.ok:
            print("  WARNING: conformance divergence detected — "
                  "run repro-conform for the full report")
    if args.json:
        from repro.perf.report import write_wallclock_json

        extra = {}
        if serve_doc is not None:
            extra["serve"] = serve_doc
        if codebooks_doc is not None:
            extra["codebooks"] = codebooks_doc
        if tables_doc is not None:
            extra["tables"] = tables_doc
        if conform_doc is not None:
            extra["conform"] = conform_doc
        write_wallclock_json(args.json, results, extra=extra or None)
        print(f"[written to {args.json}]")
    if args.trace and tracer is not None:
        writer = (write_jsonl if args.trace.endswith(".jsonl")
                  else write_chrome_trace)
        writer(args.trace, tracer, registry=obs_metrics())
        print()
        print(stage_summary(tracer))
        print(f"[trace written to {args.trace}]")
    exit_code = 0
    if not args.no_history:
        from repro.perf.history import (
            append_entry,
            check_regression,
            history_entry,
            load_history,
        )

        hist_extra = None
        if tables_doc is not None:
            hist_extra = {
                "tables": {
                    s: {
                        "decode_flat_mb_s": row["decode_flat_mb_s"],
                        "decode_tiered_mb_s": row["decode_tiered_mb_s"],
                        "decode_gap_native_mb_s":
                            row["decode_gap_native_mb_s"],
                        "tiered_speedup": row["tiered_speedup"],
                        "table_bytes_tiered":
                            row["table_bytes"]["tiered"],
                        "lut_fallbacks_tiered":
                            row["lut_fallbacks_tiered"],
                    }
                    for s, row in tables_doc.items()
                }
            }
        if codebooks_doc is not None:
            # the amortized fast-path numbers ride along on the history
            # line so the sentinel's rolling window sees them too
            hist_extra = hist_extra or {}
            hist_extra.update(
                codebooks={
                    "cold_mb_s": codebooks_doc["cold"]["mb_s"],
                    "hot_mb_s": codebooks_doc["hot"]["mb_s"],
                    "amortized_speedup":
                        codebooks_doc["amortized_speedup"],
                    "hot_mean_batch_size":
                        codebooks_doc["hot"]["mean_batch_size"],
                    "registry_hits": codebooks_doc["registry_hits"],
                    "registry_misses": codebooks_doc["registry_misses"],
                }
            )
        entry = history_entry(results, extra=hist_extra)
        prior = load_history(args.history)
        if args.sentinel:
            verdict = check_regression(prior, entry)
            print()
            print(verdict.render())
            if not verdict.ok:
                exit_code = 1
        append_entry(args.history, entry)
        print(f"[history: run #{len(prior) + 1} appended to "
              f"{args.history}]")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
