"""The four workloads: inputs from the seed, set-up, measured slices.

Every workload is driven closed-loop: a caller sends its next operation
only when the previous one has returned, so a slower program receives
less load instead of a growing backlog.  The inputs are fixed by
``(seed, set-up repetition)``; the program only ever sees the generated
arrays.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import ROOT, BenchError, clean_env, median

pc = time.perf_counter

# bulk: 3-D float64 fields whose uint16 codes reach the encoder's
# process-sharding threshold, and ~2 MB enwik8-surrogate byte streams.
# At this error bound and roughness the codes average ~5.3 bits, far
# from the encoder's reduction-factor and breaking thresholds, so the
# ratio does not move with the seed; the book is still 18-20 bits deep.
FIELD_SIDE = 128
FIELD_ROUGHNESS = 0.02
FIELD_EB = 4e-3
FIELD_BINS = 1024
SHARD_BYTES = 4 << 20  # repro.core.chunk_parallel.PARALLEL_THRESHOLD_BYTES
TEXT_BYTES = 2_000_000
FLAT_MAX_LENGTH = 16  # deepest book the flat decode table (and C kernel) take

# serving: 16 KiB uint16 Zipf payloads against one registered codebook.
# A Zipf exponent of 1.3 keeps the reduce-merge breaking share at ~7.5%
# for every seed; at 1.1 it jumps between 22% and 24% with the seed.
ALPHABET = 1024
ZIPF_A = 1.3
PAYLOAD_SYMBOLS = 8192
N_PAYLOADS = 64
N_COLD = 20  # distinct cold payloads: more than the codebook cache holds
WINDOW = 16  # requests in flight for serve_hot (= ServiceConfig.max_batch)
HTTP_CONNECTIONS = 2


@dataclass
class Phase:
    """Raw samples of one or more measured slices."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    lat: list[float] = field(default_factory=list)  # per operation, s
    comp: list[float] = field(default_factory=list)  # bulk compress, s
    decomp: list[float] = field(default_factory=list)  # bulk decompress, s
    elapsed: float = 0.0  # serving wall time, s
    comp_in: int = 0
    comp_out: int = 0
    dec_out: int = 0
    #: serve_hot traced requests: (kind, t_submit, t_enter, t_exit, t_done)
    recs: list[tuple] = field(default_factory=list)
    unmatched: int = 0
    reconcile: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def merge(self, other: "Phase") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
        del self.errors[5:]

    def e2e(self) -> dict[str, tuple[float, int]]:
        """End-to-end metrics (value, samples) except set-up and memory."""
        n = len(self.lat)
        if not n:
            raise BenchError("no operation completed")
        if self.comp:
            # bulk: all work over all time spent on it.  The host's speed
            # drifts over seconds; a mean moves in proportion to the share
            # of slow operations, a median jumps between the two speeds.
            comp_rate = self.comp_in / 1e6 / sum(self.comp)
            decomp_rate = self.dec_out / 1e6 / sum(self.decomp)
        else:
            comp_rate = self.comp_in / 1e6 / self.elapsed
            decomp_rate = self.dec_out / 1e6 / self.elapsed
        return {
            "compress_mb_s": (comp_rate, n),
            "decompress_mb_s": (decomp_rate, n),
            "p50_ms": (1e3 * median(self.lat), n),
            "ratio": (self.comp_in / self.comp_out, n),
        }


def _book_for(counts: np.ndarray):
    from repro.core.codebook_parallel import parallel_codebook

    return parallel_codebook(np.asarray(counts, dtype=np.int64)).codebook


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise BenchError(f"input property check failed: {msg}")


def _clear_program_caches() -> None:
    from repro.huffman.cache import codebook_cache, decode_table_cache

    codebook_cache().clear()
    decode_table_cache().clear()


def _local_counters(state: dict) -> dict:
    from layers import local_counters

    return local_counters()


# ------------------------------------------------------------------ bulk
class Bulk:
    """One caller, closed loop: compress, then decompress, a fresh input.

    Each operation's input differs slightly from the last (a rolled noise
    term for fields, a moved slice of bytes for text), so every compress
    builds its own codebook as a new stream would; preparing it is not
    timed.
    """

    front = "bulk"
    counters = staticmethod(_local_counters)

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: layers a traced run must see called (see layers.LayerTrace)
        self.required = ("app", "histogram", "codebook.build", "encode",
                         "serialize", "deserialize", "decode")
        if kind == "field":
            self.required += ("quantize", "dequantize", "decode.table_build")

    def setup(self, seed: int, rep: int) -> dict:
        from repro.datasets.quantization import lorenzo_quantize, synthetic_field
        from repro.datasets.registry import get_dataset

        rng = np.random.default_rng([seed, rep])
        if self.kind == "field":
            shape = (FIELD_SIDE,) * 3
            base = synthetic_field(shape, rng, roughness=FIELD_ROUGHNESS)
            noise = 0.25 * FIELD_EB * rng.standard_normal(base.size)
            codes = lorenzo_quantize(base, FIELD_EB, FIELD_BINS).codes
            codes = codes.astype(np.uint16)
            book = _book_for(np.bincount(codes, minlength=FIELD_BINS))
            _require(book.max_length > FLAT_MAX_LENGTH,
                     f"field book max_length {book.max_length} <= "
                     f"{FLAT_MAX_LENGTH}: decode would not use the tiered table")
            _require(codes.nbytes >= SHARD_BYTES,
                     f"field codes {codes.nbytes} B below the sharding "
                     f"threshold {SHARD_BYTES} B")
            state = {"base": base, "noise": noise}
        else:
            base, _ = get_dataset("enwik8").generate(TEXT_BYTES, rng)
            book = _book_for(np.bincount(base, minlength=256))
            _require(book.max_length <= FLAT_MAX_LENGTH,
                     f"text book max_length {book.max_length} > "
                     f"{FLAT_MAX_LENGTH}: decode would leave the flat table")
            _require(base.nbytes < SHARD_BYTES,
                     f"text input {base.nbytes} B reaches the sharding "
                     "threshold")
            state = {"base": base}
        _clear_program_caches()
        state["next_op"] = 0  # input index, kept across slices
        warm = Phase()
        self._round_trip(state, warm)
        if warm.failed:
            raise BenchError(f"warm-up round trip failed: {warm.errors}")
        return state

    def teardown(self, state: dict) -> None:
        state.clear()

    def _input(self, state: dict, k: int) -> np.ndarray:
        base = state["base"]
        if self.kind == "field":
            return base + np.roll(state["noise"], 7919 * k).reshape(base.shape)
        x = base.copy()
        at = (104_729 * k) % (x.size - 4096)
        x[at:at + 4096] = base[(at + 65_536) % (x.size - 4096):][:4096]
        return x

    def _round_trip(self, state: dict, phase: Phase) -> None:
        from repro.app import compressor

        k = state["next_op"]
        state["next_op"] += 1
        x = self._input(state, k)
        phase.attempted += 1
        if self.kind == "field":
            t0 = pc()
            blob, _ = compressor.compress_field(x, FIELD_EB, FIELD_BINS)
            t1 = pc()
            y = compressor.decompress_field(blob)
            t2 = pc()
            # the bound the program's own tests hold it to: floating-point
            # reconstruction may exceed it by a relative 1e-9
            ok = y.shape == x.shape and bool(
                np.all(np.abs(y - x) <= FIELD_EB * (1 + 1e-9)))
        else:
            t0 = pc()
            blob, _ = compressor.compress_symbols(x)
            t1 = pc()
            y = compressor.decompress_symbols(blob)
            t2 = pc()
            ok = y.dtype == x.dtype and np.array_equal(y, x)
        if not ok:
            phase.fail(f"{self.kind} op {k}: reconstruction check failed")
            return
        phase.comp.append(t1 - t0)
        phase.decomp.append(t2 - t1)
        phase.lat.append(t2 - t0)
        phase.comp_in += x.nbytes
        phase.comp_out += len(blob)
        phase.dec_out += y.nbytes

    def measure(self, state: dict, seconds: float, trace) -> Phase:
        phase = Phase()
        facade0 = trace.facade_s if trace is not None else 0.0
        end = pc() + seconds
        while pc() < end:
            self._round_trip(state, phase)
        if trace is not None:
            spans, timed = trace.facade_s - facade0, sum(phase.lat)
            if abs(spans - timed) > 0.02 * timed:
                phase.reconcile.append(
                    f"facade spans {spans:.4f}s vs caller-timed {timed:.4f}s")
        return phase


# --------------------------------------------------------------- serving
class _Mix:
    """The serving request mix over one registered codebook.

    In every 16 requests: 8 decompress, 7 compress with the codebook id
    (single-stage encode), 1 cold compress without it.  Each request
    object is used by at most one request in flight, which lets a traced
    run match a facade call to its request by identity.
    """

    def __init__(self, seed: int, rep: int) -> None:
        from repro.app.compressor import (
            compress_symbols,
            compress_symbols_registered,
            decompress_symbols,
        )
        from repro.datasets.synthetic import sample_symbols, zipf_probs

        rng = np.random.default_rng([seed, rep])
        probs = zipf_probs(ALPHABET, ZIPF_A)
        self.payloads = [
            sample_symbols(probs, PAYLOAD_SYMBOLS, rng, dtype=np.uint16)
            for _ in range(N_PAYLOADS)
        ]
        self.cold = [p.copy() for p in self.payloads[:N_COLD]]
        self.corpus = np.concatenate(self.payloads)
        # add-one smoothing, as the HTTP registration route does
        self.book = _book_for(np.bincount(self.corpus, minlength=ALPHABET) + 1)
        for p in self.payloads:
            _require(bool(np.all(self.book.lengths[p] > 0)),
                     "registered codebook does not cover a payload")
        self.hot_blobs = [compress_symbols_registered(p, self.book)[0]
                          for p in self.payloads]
        self.cold_blobs = [compress_symbols(p)[0] for p in self.cold]
        for p, blob in zip(self.payloads + self.cold,
                           self.hot_blobs + self.cold_blobs):
            if not np.array_equal(decompress_symbols(blob), p):
                raise BenchError("reference container does not round-trip")

    def request(self, i: int):
        """``(kind, payload object, expected result)`` of request ``i``."""
        r = i % 16
        if r == 0:
            j = (i // 16) % N_COLD
            return "cold", self.cold[j], self.cold_blobs[j]
        j = (i // 2) % N_PAYLOADS
        if r % 2:
            return "decompress", self.hot_blobs[j], self.payloads[j]
        return "hot", self.payloads[j], self.hot_blobs[j]


class ServeHot:
    """In-process ``CompressionService``; one generator thread keeps
    ``WINDOW`` requests in flight."""

    front = "service"
    counters = staticmethod(_local_counters)
    # hot compress: single-stage encode; cold compress: histogram and
    # encode; decompress: deserialize and decode
    required = ("app", "encode.single_stage", "serialize", "histogram",
                "encode", "deserialize", "decode")

    def setup(self, seed: int, rep: int) -> dict:
        from repro.codebooks.registry import CodebookRegistry, set_process_registry
        from repro.serve.service import CompressionService, ServiceConfig

        mix = _Mix(seed, rep)
        registry = CodebookRegistry()  # memory-only
        set_process_registry(registry)
        entry = registry.register(mix.book)
        _clear_program_caches()
        service = CompressionService(ServiceConfig()).start()
        state = {"mix": mix, "service": service,
                 "codebook_id": entry.codebook_id, "next_req": 0}
        warm = self._drive(state, 0.0, None, n_min=2 * WINDOW)
        if warm.failed:
            self.teardown(state)
            raise BenchError(f"warm-up requests failed: {warm.errors}")
        return state

    def teardown(self, state: dict) -> None:
        from repro.codebooks.registry import set_process_registry

        state["service"].close()
        set_process_registry(None)

    def measure(self, state: dict, seconds: float, trace) -> Phase:
        return self._drive(state, seconds, trace)

    def _drive(self, state, seconds, trace, n_min=0) -> Phase:
        mix, service = state["mix"], state["service"]
        cb_id = state["codebook_id"]
        phase = Phase()
        done: queue.SimpleQueue = queue.SimpleQueue()
        by_obj: dict[int, list] = {}  # id(payload) -> record, traced only
        lock = threading.Lock()

        def on_facade(arg, t_enter, t_exit):  # runs on shard threads
            rec = by_obj.get(id(arg))
            with lock:
                if rec is None or rec[4] is not None:
                    phase.unmatched += 1
                    return
                rec[4], rec[5] = t_enter, t_exit

        if trace is not None:
            trace.on_facade = on_facade

        def submit() -> None:
            kind, obj, expected = mix.request(state["next_req"])
            state["next_req"] += 1
            # [kind, obj, expected, t_submit, t_enter, t_exit, t_done]
            rec = [kind, obj, expected, 0.0, None, None, None]
            if trace is not None:
                by_obj[id(obj)] = rec
            phase.attempted += 1
            rec[3] = pc()
            if kind == "decompress":
                fut = service.submit_decompress(obj)
            elif kind == "hot":
                fut = service.submit_compress(obj, codebook_id=cb_id)
            else:
                fut = service.submit_compress(obj)

            def on_done(f, rec=rec):
                rec[6] = pc()
                done.put((rec, f))
            fut.add_done_callback(on_done)

        start = pc()
        end = start + seconds
        last_done = start
        sent = completed = 0
        for _ in range(WINDOW):
            submit()
            sent += 1
        while completed < sent:
            rec, fut = done.get(timeout=60.0)
            completed += 1
            kind, obj, expected = rec[:3]
            by_obj.pop(id(obj), None)
            try:
                out = fut.result()
            except Exception as exc:  # noqa: BLE001 - a failed request
                phase.fail(f"{kind}: {type(exc).__name__}: {exc}")
                out = None
            if out is None:
                pass
            elif kind == "decompress":
                if out.dtype == expected.dtype and np.array_equal(out, expected):
                    phase.dec_out += out.nbytes
                    phase.lat.append(rec[6] - rec[3])
                else:
                    phase.fail("decompress: wrong symbols")
            elif out[0] == expected:
                phase.comp_in += obj.nbytes
                phase.comp_out += len(out[0])
                phase.lat.append(rec[6] - rec[3])
            else:
                phase.fail(f"{kind} compress: container differs")
            if trace is not None:
                phase.recs.append((kind, *rec[3:]))
            last_done = max(last_done, rec[6])
            if pc() < end or sent < n_min:
                submit()
                sent += 1
        if trace is not None:
            trace.on_facade = None
        phase.elapsed = last_done - start
        return phase


def serve_split(phase: Phase, service_n: float,
                service_s: float) -> tuple[dict[str, float], list[str]]:
    """Mean submit->facade wait, facade time and facade->done time of the
    traced requests, checked against the service's own latency histogram
    (``service_n`` requests taking ``service_s`` seconds in all).

    The service times each request from dispatch to result, which holds
    the facade call and lies within submit->done, so its total must lie
    between the summed facade times and the summed request latencies.
    """
    errors = []
    if phase.unmatched:
        errors.append(f"{phase.unmatched} facade calls matched no request")
    waits, execs, posts = [], [], []
    for kind, t_sub, t_in, t_out, t_done in phase.recs:
        if t_in is None:
            errors.append(f"a {kind} request never reached the facade")
            break
        w, e, p = t_in - t_sub, t_out - t_in, t_done - t_out
        if min(w, e, p) < -1e-6:
            errors.append(f"{kind} request out of order: {w} {e} {p}")
            break
        waits.append(w)
        execs.append(e)
        posts.append(p)
    if service_n != len(phase.recs):
        errors.append(f"service counted {service_n:.0f} requests, "
                      f"{len(phase.recs)} were sent")
    exec_s, lat_s = sum(execs), sum(waits) + sum(execs) + sum(posts)
    if not exec_s - 1e-3 <= service_s <= lat_s + 1e-3:
        errors.append(f"service latency {service_s:.4f}s outside facade "
                      f"{exec_s:.4f}s .. request {lat_s:.4f}s")
    n = max(len(execs), 1)
    layers = {name: 1e3 * sum(x) / n for name, x in (
        ("serve.wait_ms", waits), ("serve.exec_ms", execs),
        ("serve.post_ms", posts))}
    return layers, errors


# ------------------------------------------------------------------ http
class _Server:
    """``python -m repro.serve.cli`` in its own process."""

    _LISTEN = re.compile(rb"listening on http://([\d.]+):(\d+)")

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--host", "127.0.0.1",
             "--port", "0"],
            cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
        )
        lines: queue.SimpleQueue = queue.SimpleQueue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(ln) for ln in self.proc.stdout],
            daemon=True,
        )
        self._reader.start()
        deadline = pc() + 60.0
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - pc()))
            except queue.Empty:
                self.stop()
                raise BenchError("HTTP server did not start") from None
            m = self._LISTEN.search(line)
            if m:
                self.host, self.port = m.group(1).decode(), int(m.group(2))
                return

    def request(self, method: str, path: str, body=None, headers=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, resp.getheaders(), resp.read()
        finally:
            conn.close()

    def get(self, path: str) -> bytes:
        status, _, body = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} -> {status}")
        return body

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


class HttpSmall:
    """The serving mix through the HTTP front: ``HTTP_CONNECTIONS``
    closed-loop client threads, one request per connection."""

    front = "http"
    required = ()  # the program runs in the server process

    def setup(self, seed: int, rep: int) -> dict:
        from repro.huffman.cache import codebook_digest

        mix = _Mix(seed, rep)
        server = _Server()
        try:
            status, _, body = server.request(
                "POST", "/codebooks", mix.corpus.tobytes(),
                {"X-Repro-Dtype": "uint16",
                 "X-Repro-Num-Symbols": str(ALPHABET)})
            if status != 200:
                raise BenchError(f"codebook registration -> {status}")
            cb_id = json.loads(body)["codebook_id"]
            if cb_id != codebook_digest(mix.book):
                raise BenchError("server registered a different codebook")
            state = {"mix": mix, "server": server, "codebook_id": cb_id,
                     "next_req": 0}
            warm = self._drive(state, 0.0, n_min=2 * WINDOW)
            if warm.failed:
                raise BenchError(f"warm-up requests failed: {warm.errors}")
        except BaseException:
            server.stop()
            raise
        return state

    def teardown(self, state: dict) -> None:
        state["server"].stop()

    def counters(self, state: dict) -> dict:
        from layers import http_counters

        return http_counters(state["server"].get)

    def measure(self, state: dict, seconds: float, trace) -> Phase:
        return self._drive(state, seconds)

    def _drive(self, state, seconds, n_min=0) -> Phase:
        mix, server = state["mix"], state["server"]
        hot_headers = {"X-Repro-Dtype": "uint16",
                       "X-Repro-Codebook-Id": state["codebook_id"]}
        phase = Phase()
        lock = threading.Lock()
        sent = [0]
        last_done = [0.0]
        start = pc()
        end = start + seconds

        def client() -> None:
            while True:
                with lock:
                    if pc() >= end and sent[0] >= n_min:
                        return
                    i = state["next_req"]
                    state["next_req"] += 1
                    sent[0] += 1
                    phase.attempted += 1
                kind, obj, expected = mix.request(i)
                if kind == "decompress":
                    path, body, headers = "/decompress", obj, {}
                    want = expected.tobytes()
                else:
                    path, body = "/compress", obj.tobytes()
                    headers = hot_headers if kind == "hot" else {
                        "X-Repro-Dtype": "uint16"}
                    want = expected
                t0 = pc()
                try:
                    status, hdrs, got = server.request("POST", path, body,
                                                       headers)
                except (OSError, http.client.HTTPException) as exc:
                    status, hdrs, got = f"{type(exc).__name__}: {exc}", [], b""
                t1 = pc()
                ok = status == 200 and got == want
                if ok and kind == "decompress":
                    ok = dict(hdrs).get("X-Repro-Dtype") == "uint16"
                with lock:
                    last_done[0] = max(last_done[0], t1)
                    if not ok:
                        phase.fail(f"{kind}: status {status}, "
                                   f"{len(got)} B body")
                        continue
                    phase.lat.append(t1 - t0)
                    if kind == "decompress":
                        phase.dec_out += len(got)
                    else:
                        phase.comp_in += len(body)
                        phase.comp_out += len(got)

        threads = [threading.Thread(target=client)
                   for _ in range(HTTP_CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.elapsed = last_done[0] - start
        return phase


WORKLOADS = {
    "field_lossy": lambda: Bulk("field"),
    "text_bulk": lambda: Bulk("text"),
    "serve_hot": ServeHot,
    "http_small": HttpSmall,
}
