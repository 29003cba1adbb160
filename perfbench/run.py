"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload field_lossy --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` cycles untraced slices, slices under the
program's own tracer, and slices under per-layer wrappers with counter
snapshots, and prints the per-layer metrics.  The metric names, units and
workloads are those listed in ``BENCHMARK.json``; the last line of
standard output is the JSON result.

Exit codes: 0 result printed; 1 result printed but an output check or a
traced reconciliation failed; 2 no result (missing program, native
kernel unavailable, failed input-property check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (
    ROOT,
    BenchError,
    adopt_orphans,
    ensure_clean_process,
    environment_stamp,
    import_program,
    median,
    peak_rss_mib,
    stop_children,
    tail,
)

#: set-ups per run; ``setup_s`` is their median.  The first one also pays
#: process-wide one-time work (imports, kernel load, dataset fit).
N_SETUP = 5
#: a traced run cycles through three kinds of slice: untraced, under the
#: program's own tracer (``repro.obs.tracing()``), and under the layer
#: wrappers plus the program's tracer.  Cycling lets drift in the host's
#: speed reach every kind alike.
TRACE_CYCLES = 4


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_traced(wl, state, seconds: float):
    """Run the three kinds of slice; returns the phase of each kind, the
    layer trace and the counter snapshots around each wrapped slice."""
    from layers import LayerTrace
    from workloads import Phase

    from repro.obs import tracing

    plain, obs, traced = Phase(), Phase(), Phase()
    lt = LayerTrace()
    pairs = []
    dt = seconds / (3 * TRACE_CYCLES)
    for _ in range(TRACE_CYCLES):
        plain.merge(wl.measure(state, dt, None))
        with tracing():
            obs.merge(wl.measure(state, dt, None))
        before = wl.counters(state)
        with tracing() as tracer:
            lt.install()
            try:
                traced.merge(wl.measure(state, dt, lt))
            finally:
                lt.uninstall()
        lt.add_program_spans(tracer.spans)
        pairs.append((before, wl.counters(state)))
    return plain, obs, traced, lt, pairs


def traced_metrics(wl, plain, obs, traced, lt, pairs) -> dict[str, float]:
    """Per-layer metrics of the wrapped slices; accounting errors are
    appended to ``traced.reconcile``."""
    from layers import counter_metrics, counter_total
    from workloads import serve_split

    layers = lt.layer_metrics()
    layers.update(counter_metrics(pairs))
    layers.update({"serve.wait_ms": 0.0, "serve.exec_ms": 0.0,
                   "serve.post_ms": 0.0, "serve.tail_ms": 0.0,
                   "http.front_ms": 0.0, "obs.trace_overhead_pct": 0.0})
    if wl.front == "service":
        split, errors = serve_split(
            traced,
            counter_total(pairs, "repro_serve_request_latency_seconds_count"),
            counter_total(pairs, "repro_serve_request_latency_seconds_sum"))
        layers.update(split)
        layers["serve.tail_ms"] = 1e3 * tail(traced.lat)
        traced.reconcile += errors
    if wl.front == "http":
        client_ms = 1e3 * sum(traced.lat) / len(traced.lat)
        layers["http.front_ms"] = client_ms - layers["http.server_ms"]
        if layers["http.front_ms"] < 0:
            traced.reconcile.append("server latency exceeds client latency")
    else:
        layers["http.server_ms"] = 0.0
        # the program's tracing cost; the HTTP server traces in its own
        # process, which the benchmark's tracer does not reach
        p_plain = plain.e2e()["p50_ms"][0]
        p_obs = obs.e2e()["p50_ms"][0]
        layers["obs.trace_overhead_pct"] = 100.0 * (p_obs - p_plain) / p_plain
    if layers["backends.fallbacks"]:
        traced.reconcile.append("kernel backend fell back to numpy")
    traced.reconcile += lt.reconcile(wl.required)
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    setup_s = []
    state = None
    try:
        for rep in range(N_SETUP):
            if state is not None:
                wl.teardown(state)
                state = None
            t0 = time.perf_counter()
            state = wl.setup(seed, rep)
            setup_s.append(time.perf_counter() - t0)
        if trace:
            plain, obs, traced, lt, pairs = measure_traced(wl, state,
                                                           seconds)
        else:
            phase = wl.measure(state, seconds, None)
    finally:
        if state is not None:
            wl.teardown(state)

    if trace:
        layers = traced_metrics(wl, plain, obs, traced, lt, pairs)
        n = len(traced.lat)
        metrics = {k: (v, n) for k, v in layers.items()}
        phases = [plain, obs, traced]
    else:
        metrics = {"setup_s": (median(setup_s), len(setup_s))}
        metrics.update(phase.e2e())
        metrics["peak_rss_mb"] = (peak_rss_mib(), 1)
        phases = [phase]
    failures = [e for ph in phases for e in ph.errors + ph.reconcile]
    return {
        "correct": not failures,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
        "failures": failures,
    }


def main(argv=None) -> int:
    ensure_clean_process()
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        definition = load_definition()
        names = [w["name"] for w in definition["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; known: {names}")
        import_program()
        stamp = environment_stamp()
        print("env: " + json.dumps(stamp), flush=True)
        if not stamp["native_gap_kernel"]:
            raise BenchError("native gap kernel unavailable: "
                             f"{stamp['native_gap_error']}")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    spec = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(units):
        print(f"perfbench: metrics {sorted(set(got) ^ set(units))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name in units:
        value, n = got[name]
        print(f"  {name:28s} {value:14.4f} {units[name]:10s} n={n}")
    for f in result.pop("failures"):
        print(f"  FAILED: {f}")
    result["metrics"] = {name: {"value": got[name][0], "unit": units[name]}
                         for name in units}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
