"""Per-layer measurement from outside the program.

Tracing here never edits the program: a traced run replaces, for its own
process, the module attributes through which one layer calls the next
(``repro.app.compressor.parallel_encode`` and so on) with timing
wrappers, and reads the program's public counters before and after.
The untraced run installs nothing.

Each wrapped call is a span on a per-thread stack.  A span's self time
(and self minor-fault count) is its duration minus that of the spans it
encloses, so the facade's self time is the code between layers
(``app.other_ms``).

Self times add up to the facade time by construction, so that sum checks
nothing.  What :meth:`LayerTrace.reconcile` checks instead can fail: each
layer a workload exists for was called, and the program's own spans
(``repro.obs``), recorded in the same slices, agree with the wrapped
times.  A facade->layer call that no wrapper sees leaves its program span
outside the layer's wrapped time and fails the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

from common import minor_faults

FACADE = "app"

#: (module, attribute, layer): the call sites a traced run wraps.  The
#: facade module imports each layer function by name, so its module
#: attributes are where the facade's calls resolve.
TIMED = [
    ("repro.app.compressor", "compress_field", FACADE),
    ("repro.app.compressor", "decompress_field", FACADE),
    ("repro.app.compressor", "compress_symbols", FACADE),
    ("repro.app.compressor", "decompress_symbols", FACADE),
    ("repro.serve.service", "compress_symbols_registered", FACADE),
    ("repro.serve.service", "compress_symbols", FACADE),
    ("repro.serve.service", "decompress_symbols", FACADE),
    ("repro.app.compressor", "lorenzo_quantize", "quantize"),
    ("repro.app.compressor", "dequantize", "dequantize"),
    ("repro.app.compressor", "gpu_histogram", "histogram"),
    ("repro.app.compressor", "parallel_codebook", "codebook.build"),
    ("repro.app.compressor", "parallel_encode", "encode"),
    ("repro.core.single_stage", "single_stage_encode", "encode.single_stage"),
    ("repro.app.compressor", "serialize_stream", "serialize"),
    ("repro.app.compressor", "deserialize_stream", "deserialize"),
    ("repro.app.compressor", "decode_stream", "decode"),
    ("repro.huffman.cache", "build_decode_table", "decode.table_build"),
    ("repro.huffman.cache", "build_tiered_decode_table",
     "decode.table_build"),
]

#: call sites that are counted, not timed: ``gpu_encode`` as called by
#: ``parallel_encode`` runs only when the encode was not sharded
COUNTED = [
    ("repro.core.chunk_parallel", "gpu_encode", "encode.in_process"),
]

#: program spans (``repro.obs``) that open inside a wrapped layer call:
#: their total may not exceed the layer's wrapped (inclusive) time
SPANS_INSIDE = {
    "app.compress_symbols": FACADE,
    "app.decompress_symbols": FACADE,
    "app.compress_field": FACADE,
    "app.decompress_field": FACADE,
    "encode.histogram": "histogram",
    "encode.codebook": "codebook.build",
    "decode.stream": "decode",
}
#: program spans that enclose a wrapped layer call and little else: the
#: layer's wrapped time must cover at least ``ENCLOSED_SHARE`` of them
SPANS_AROUND = {
    "app.quantize": "quantize",
    "app.dequantize": "dequantize",
}
ENCLOSED_SHARE = 0.9
#: clock and rounding slack per compared total, s
SLACK_S = 1e-4


def _array_size(x) -> tuple[int, int]:
    """(elements, bytes) of an array argument or result; (0, 0) for
    anything else."""
    n, b = getattr(x, "size", 0), getattr(x, "nbytes", 0)
    return (n, b) if isinstance(n, int) and isinstance(b, int) else (0, 0)


class LayerTrace:
    """Install timing wrappers; accumulate per-layer self time and faults."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: summed durations of the program's own spans, by name (s)
        self.program_s: dict[str, float] = defaultdict(float)
        self.faults: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.items_in: dict[str, int] = defaultdict(int)
        self.bytes_in: dict[str, int] = defaultdict(int)
        self.items_out: dict[str, int] = defaultdict(int)
        self.facade_s = 0.0
        self.misplaced = 0  # layer span outside a facade, or nested facade
        #: called as ``on_facade(first_arg, t_enter, t_exit)``
        self.on_facade = None

    # --------------------------------------------------------- install
    def install(self) -> "LayerTrace":
        for mod_name, attr, layer in TIMED:
            self._patch(mod_name, attr, lambda fn, lay=layer: self._timed(fn, lay))
        for mod_name, attr, key in COUNTED:
            self._patch(mod_name, attr, lambda fn, k=key: self._counted(fn, k))
        return self

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def _patch(self, mod_name: str, attr: str, make) -> None:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        self._undo.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    # -------------------------------------------------------- wrappers
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _timed(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            misplaced = (layer == FACADE) == bool(stack)
            span = [time.perf_counter(), minor_faults(), 0.0, 0]
            stack.append(span)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                f1 = minor_faults()
                stack.pop()
                dur = t1 - span[0]
                flt = f1 - span[1]
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3] += flt
                with self._lock:
                    self.self_s[layer] += dur - span[2]
                    self.total_s[layer] += dur
                    self.faults[layer] += flt - span[3]
                    self.calls[layer] += 1
                    n_in, b_in = _array_size(args[0]) if args else (0, 0)
                    self.items_in[layer] += n_in
                    self.bytes_in[layer] += b_in
                    self.items_out[layer] += _array_size(out)[0]
                    self.misplaced += misplaced
                    if layer == FACADE:
                        self.facade_s += dur
                if layer == FACADE and self.on_facade is not None and args:
                    self.on_facade(args[0], span[0], t1)
        return wrapper

    def _counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -------------------------------------------------------- results
    def layer_metrics(self) -> dict[str, float]:
        """Per-facade-call layer times (ms), rates and fault densities."""
        n = self.calls[FACADE]
        per = 1e3 / n if n else 0.0

        def ms(layer: str) -> float:
            return self.self_s[layer] * per

        def rate(layer: str, nbytes: int) -> float:
            s = self.self_s[layer]
            return nbytes / 1e6 / s if s else 0.0

        def faults_per_mb(layer: str, nbytes: int) -> float:
            return self.faults[layer] / (nbytes / 1e6) if nbytes else 0.0

        enc_in = self.bytes_in["encode"]
        # decoded symbols counted at the width the encoder took them in:
        # the decoder returns wider integers than the symbols it restores
        enc_items = self.items_in["encode"]
        dec_out = int(self.items_out["decode"]
                      * (enc_in / enc_items if enc_items else 1.0))
        enc_calls = self.calls["encode"]
        return {
            "app.facade_ms": self.facade_s * per,
            "app.other_ms": ms(FACADE),
            "quantize.ms": ms("quantize"),
            "dequantize.ms": ms("dequantize"),
            "histogram.ms": ms("histogram"),
            "codebook.build_ms": ms("codebook.build"),
            "encode.ms": ms("encode"),
            "encode.mb_s": rate("encode", enc_in),
            "encode.minflt_per_mb": faults_per_mb("encode", enc_in),
            "encode.sharded_share": (
                1.0 - self.calls["encode.in_process"] / enc_calls
                if enc_calls else 0.0
            ),
            "encode.single_stage_ms": ms("encode.single_stage"),
            "serialize.ms": ms("serialize"),
            "deserialize.ms": ms("deserialize"),
            "decode.ms": ms("decode"),
            "decode.mb_s": rate("decode", dec_out),
            "decode.minflt_per_mb": faults_per_mb("decode", dec_out),
            "decode.table_build_ms": ms("decode.table_build"),
        }

    def add_program_spans(self, spans) -> None:
        """Sum the durations of the program's spans recorded in a traced
        slice (``repro.obs.Tracer.spans``) that the checks compare."""
        for sp in spans:
            if sp.track is None and (sp.name in SPANS_INSIDE
                                     or sp.name in SPANS_AROUND):
                self.program_s[sp.name] += sp.dur_us / 1e6

    def reconcile(self, required: tuple[str, ...]) -> list[str]:
        """Accounting errors: layer spans outside a facade, a layer in
        ``required`` never called, or wrapped times that disagree with
        the program's own spans."""
        errors = []
        if self.misplaced:
            errors.append(f"{self.misplaced} layer spans outside a facade "
                          "call or nested facades")
        for layer in required:
            if not self.calls[layer]:
                errors.append(f"layer {layer} was never called")
        inside = defaultdict(float)
        for name, layer in SPANS_INSIDE.items():
            inside[layer] += self.program_s[name]
        for layer, prog in inside.items():
            if prog > self.total_s[layer] + SLACK_S:
                errors.append(
                    f"program spans of {layer} take {prog:.4f}s, more than "
                    f"its wrapped time {self.total_s[layer]:.4f}s: a call "
                    "into it was not wrapped")
        for name, layer in SPANS_AROUND.items():
            prog = self.program_s[name]
            if self.total_s[layer] + SLACK_S < ENCLOSED_SHARE * prog:
                errors.append(
                    f"wrapped {layer} {self.total_s[layer]:.4f}s covers less "
                    f"than {ENCLOSED_SHARE:.0%} of program span {name} "
                    f"{prog:.4f}s")
        return errors


# ------------------------------------------------------------ counters
def _flatten(text: str) -> dict:
    from repro.obs import parse_prometheus_text

    flat = {}
    for fam in parse_prometheus_text(text).values():
        for name, labels, value in fam["samples"]:
            flat[(name, tuple(sorted(labels.items())))] = value
    return flat


def local_counters() -> dict:
    """The program's public counters, read in-process."""
    from repro.huffman.cache import cache_infos
    from repro.obs import metrics

    return {
        "metrics": _flatten(metrics().render()),
        "caches": {k: (v.hits, v.misses) for k, v in cache_infos().items()},
    }


def http_counters(get) -> dict:
    """The same counters scraped from a server's ``/metrics`` and
    ``/stats`` (``get(path) -> bytes``)."""
    import json

    stats = json.loads(get("/stats"))
    return {
        "metrics": _flatten(get("/metrics").decode()),
        "caches": {k: (v["hits"], v["misses"])
                   for k, v in stats["caches"].items()},
    }


def counter_total(pairs: list[tuple[dict, dict]], name: str,
                  **labels) -> float:
    """Delta of a counter (summed over matching label sets) over the
    ``(before, after)`` snapshot pairs of the traced slices."""
    out = 0.0
    for before, after in pairs:
        b = before["metrics"]
        for key, value in after["metrics"].items():
            sname, lab = key
            d = dict(lab)
            if sname == name and all(d.get(k) == v
                                     for k, v in labels.items()):
                out += value - b.get(key, 0.0)
    return out


def counter_metrics(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer metrics from counter deltas over the traced slices."""

    def total(name: str, **labels) -> float:
        return counter_total(pairs, name, **labels)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def cache_ratio(name: str) -> float:
        hits = misses = 0
        for before, after in pairs:
            h0, m0 = before["caches"].get(name, (0, 0))
            h1, m1 = after["caches"].get(name, (0, 0))
            hits += h1 - h0
            misses += m1 - m0
        return ratio(hits, hits + misses)

    reg_hits = total("repro_codebook_registry_hits_total")
    reg_miss = total("repro_codebook_registry_misses_total")
    return {
        "codebook.cache_hit_ratio": cache_ratio("codebook"),
        "decode.table_cache_hit_ratio": cache_ratio("decode_table"),
        "decode.gap_share": ratio(
            total("repro_decode_symbols_total", path="gap"),
            total("repro_decode_symbols_total")),
        "decode.tiered_share": ratio(
            total("repro_decode_table_tier_total", tier="tiered"),
            total("repro_decode_table_tier_total")),
        "decode.lut_fallbacks": total("repro_decode_lut_fallback_total"),
        "backends.fallbacks": total("repro_backend_fallback_total"),
        "registry.hit_ratio": ratio(reg_hits, reg_hits + reg_miss),
        "serve.batch_size_mean": ratio(
            total("repro_serve_batch_size_sum"),
            total("repro_serve_batch_size_count")),
        "serve.shed": total("repro_serve_shed_total"),
        "http.server_ms": 1e3 * ratio(
            total("repro_serve_request_latency_seconds_sum"),
            total("repro_serve_request_latency_seconds_count")),
    }
