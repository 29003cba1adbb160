"""Steadiness and comparison of benchmark runs.

Run each workload once per seed on this checkout and print, for every
metric, its median and interquartile spread as a share of the median next
to the bound ``BENCHMARK.json`` gives it::

    python3 perfbench/steady.py run --seeds 1-10
    python3 perfbench/steady.py run --workloads serve_hot --seeds 1-5

Compare two checkouts metric by metric.  Runs of the two alternate, one
pair per seed with the side that runs first swapped each time, so drift
in the host's speed reaches both sides alike::

    python3 perfbench/steady.py compare ../base . --seeds 1-10

Run length is always ``run_seconds`` from this checkout's
``BENCHMARK.json``, so the two sides of a comparison measure alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, iqr_share


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_once(checkout: Path, definition: dict, wl: str, seed: int,
              trace: int) -> dict | None:
    """One run of ``checkout``'s benchmark; None when it printed no result."""
    cmd = definition["command"] + [
        "--workload", wl, "--seed", str(seed),
        "--seconds", str(definition["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{checkout} {wl} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return None
    # the run's own table: every metric with its unit and samples
    print("\n".join(lines[1:-1]) + f"\n  ({checkout}, {wall:.1f}s wall)",
          flush=True)
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def _values(runs: list[dict]) -> dict[str, list[float]]:
    """{metric: [values across runs]}"""
    out: dict[str, list[float]] = {}
    for r in runs:
        for name, m in r["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def _spec(definition: dict, trace: int) -> list[dict]:
    return definition["per_layer" if trace else "end_to_end"]


def _flag(spread: float, bound) -> str:
    if bound is None:
        return ""
    return ("over bound" if spread > bound else
            "over bound/3" if spread > bound / 3 else "")


def run(args) -> int:
    definition = _definition()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in definition["workloads"]])
    status = 0
    for wl in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result = _run_once(ROOT, definition, wl, seed, args.trace)
            if result is None:
                status = 1
            else:
                runs.append(result)
        if not runs:
            continue
        per = _values(runs)
        print(f"\n{wl}: {len(runs)} runs, "
              f"wall max {max(r['wall_s'] for r in runs):.1f}s")
        print(f"  {'metric':28s} {'median':>12s} {'unit':10s} "
              f"{'IQR/med':>8s} {'bound':>6s}")
        for m in _spec(definition, args.trace):
            xs = per.get(m["name"])
            if not xs:
                continue
            spread = iqr_share(xs)
            bound = m.get("bound")
            print(f"  {m['name']:28s} {statistics.median(xs):12.4f} "
                  f"{m['unit']:10s} {spread:8.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'} "
                  f"{_flag(spread, bound)}", flush=True)
    return status


def compare(args) -> int:
    definition = _definition()
    base, new = Path(args.base).resolve(), Path(args.new).resolve()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in definition["workloads"]])
    status = 0
    for wl in workloads:
        sides: dict[Path, list[dict]] = {base: [], new: []}
        for i, seed in enumerate(_seeds(args.seeds)):
            for checkout in ((base, new) if i % 2 == 0 else (new, base)):
                result = _run_once(checkout, definition, wl, seed, args.trace)
                if result is None:
                    status = 1
                else:
                    sides[checkout].append(result)
        if not sides[base] or not sides[new]:
            continue
        va, vb = _values(sides[base]), _values(sides[new])
        print(f"\n{wl}: base {len(sides[base])} runs, "
              f"new {len(sides[new])} runs")
        print(f"  {'metric':28s} {'base':>12s} {'IQR/med':>8s} "
              f"{'new':>12s} {'IQR/med':>8s} {'worse by':>9s} {'bound':>6s}")
        for m in _spec(definition, args.trace):
            xa, xb = va.get(m["name"]), vb.get(m["name"])
            if not xa or not xb:
                continue
            ma, mb = statistics.median(xa), statistics.median(xb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None and worse > bound:
                verdict = "WORSE"
                status = 1
            print(f"  {m['name']:28s} {ma:12.4f} {iqr_share(xa):8.3f} "
                  f"{mb:12.4f} {iqr_share(xb):8.3f} {worse:9.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'} {verdict}",
                  flush=True)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run this checkout over several seeds")
    c = sub.add_parser("compare",
                       help="run two checkouts in alternating pairs")
    c.add_argument("base", help="checkout of the parent")
    c.add_argument("new", nargs="?", default=str(ROOT),
                   help="checkout of the change (default: this one)")
    for q in (r, c):
        q.add_argument("--workloads", default="",
                       help="comma-separated names (default: all)")
        q.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
        q.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
