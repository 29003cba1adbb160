"""HTTP front end: routes, status codes, round trips, clean shutdown.

Runs the real asyncio server on an ephemeral port in a background
thread (the same embedding hooks ``repro-serve --smoke`` uses) and
speaks plain ``http.client`` at it.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.decoder.gap_native import native_available
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.http import run_server
from repro.serve.service import CompressionService, ServiceConfig


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


def _serve(**overrides):
    cfg = ServiceConfig(n_shards=2, max_batch=8, max_delay_s=0.003,
                        queue_size=64, request_max_bytes=1 << 20,
                        **overrides)
    svc = CompressionService(cfg)
    svc.start()
    ready, stop, bound = threading.Event(), threading.Event(), []
    t = threading.Thread(
        target=run_server,
        kwargs=dict(service=svc, port=0, ready=ready, bound=bound,
                    stop=stop),
        daemon=True,
    )
    t.start()
    assert ready.wait(10.0), "server did not come up"
    try:
        yield bound[0]
    finally:
        stop.set()
        t.join(10.0)
        svc.close()
        assert not t.is_alive(), "server thread did not shut down cleanly"


@pytest.fixture()
def server():
    yield from _serve()


@pytest.fixture()
def sampled_server():
    """A server whose flight recorder keeps every request."""
    yield from _serve(flight_sample_every=1)


def _request(port, method, path, body=b"", headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def test_healthz_and_stats(server):
    status, _, body = _request(server, "GET", "/healthz")
    assert status == 200
    doc = json.loads(body)
    assert doc["status"] in ("ok", "degraded")
    assert doc["shards_alive"] >= 1

    status, _, body = _request(server, "GET", "/stats")
    assert status == 200
    stats = json.loads(body)
    for section in ("queue", "shards", "batches", "requests", "caches"):
        assert section in stats


def test_compress_decompress_round_trip(server):
    rng = np.random.default_rng(11)
    data = rng.integers(0, 48, size=4096).astype(np.uint16)
    status, headers, blob = _request(
        server, "POST", "/compress", body=data.tobytes(),
        headers={"X-Repro-Dtype": "uint16"},
    )
    assert status == 200, blob
    assert float(headers["X-Repro-Ratio"]) > 0

    status, headers, raw = _request(server, "POST", "/decompress",
                                    body=blob)
    assert status == 200, raw
    out = np.frombuffer(raw, dtype=headers["X-Repro-Dtype"])
    np.testing.assert_array_equal(out, data)


def test_malformed_body_is_400(server):
    status, _, body = _request(server, "POST", "/decompress",
                               body=b"not a container at all")
    assert status == 400
    assert b"error" in body


def test_misaligned_compress_body_is_400(server):
    status, _, _ = _request(server, "POST", "/compress", body=b"\x00" * 3,
                            headers={"X-Repro-Dtype": "uint16"})
    assert status == 400


def test_oversized_payload_is_413(server):
    big = b"\x00" * ((1 << 20) + 16)
    status, _, _ = _request(server, "POST", "/compress", body=big,
                            headers={"X-Repro-Dtype": "uint8"})
    assert status == 413


def test_unknown_route_is_404(server):
    status, _, _ = _request(server, "GET", "/nope")
    assert status == 404


def test_hostile_uint64_symbol_is_400_and_service_survives(server):
    """Regression: a single uint64 >= 2**63 used to kill the batcher
    thread (OverflowError escaping batch_key) and hang all later
    requests — it must be a plain 400 with the service still serving."""
    hostile = np.array([2**63 + 42], dtype=np.uint64).tobytes()
    status, _, body = _request(server, "POST", "/compress", body=hostile,
                               headers={"X-Repro-Dtype": "uint64"})
    assert status == 400, body

    data = np.arange(64, dtype=np.uint16) % 7
    status, _, blob = _request(
        server, "POST", "/compress", body=data.tobytes(),
        headers={"X-Repro-Dtype": "uint16"},
    )
    assert status == 200, blob  # batcher still consuming the queue

    status, _, body = _request(server, "GET", "/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def test_bad_dtype_is_400(server):
    status, _, _ = _request(server, "POST", "/compress", body=b"\x00" * 8,
                            headers={"X-Repro-Dtype": "float32"})
    assert status == 400


@pytest.mark.skipif(not native_available(),
                    reason="native gap kernel unavailable")
def test_flight_record_names_the_gap_backend(sampled_server):
    """A decompress that runs on the native gap kernel is labelled so in
    the flight record ``/trace/recent`` serves."""
    rng = np.random.default_rng(23)
    data = rng.integers(0, 200, size=16384).astype(np.uint16)
    status, _, blob = _request(sampled_server, "POST", "/compress",
                               data.tobytes(), {"X-Repro-Dtype": "uint16"})
    assert status == 200
    status, _, body = _request(sampled_server, "POST", "/decompress", blob)
    assert status == 200
    assert np.array_equal(np.frombuffer(body, dtype=np.uint16), data)
    status, _, body = _request(sampled_server, "GET", "/trace/recent")
    assert status == 200
    records = json.loads(body)["otherData"]["records"]
    decomp = [r for r in records if r["op"] == "decompress"]
    assert decomp
    assert decomp[-1]["paths"]["decode_strategy"] == "gap"
    assert decomp[-1]["paths"]["gap_backend"] == "native"
