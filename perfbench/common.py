"""Shared helpers: program import, environment, statistics, resource use."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: environment prefixes that change what the program does (REPRO_*
#: selects backends, stores and kernels; MALLOC_* changes glibc's
#: allocator, which moves page-fault counts and compress speed)
DIRTY_PREFIXES = ("REPRO_", "MALLOC_")


class BenchError(RuntimeError):
    """A run that cannot produce a valid result (exit 2, no result)."""


def clean_env(env: dict | None = None) -> dict:
    """A copy of ``env`` without REPRO_*/MALLOC_* and with ``src`` importable."""
    env = dict(os.environ if env is None else env)
    for key in list(env):
        if key.startswith(DIRTY_PREFIXES):
            del env[key]
    env["PYTHONPATH"] = str(SRC)
    return env


def ensure_clean_process() -> None:
    """Re-exec this interpreter when the environment carries program or
    allocator settings: glibc reads MALLOC_* at start-up, so deleting
    them from ``os.environ`` afterwards would not undo them."""
    if any(k.startswith(DIRTY_PREFIXES) for k in os.environ):
        os.execve(sys.executable, [sys.executable] + sys.argv, clean_env())


def import_program() -> None:
    """Put the checkout's ``src`` on the path; fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment_stamp() -> dict:
    """Host and toolchain facts each result is read against."""
    import importlib.util

    import numpy as np

    from repro.decoder.gap_native import native_available, native_error

    native = native_available()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "native_gap_kernel": native,
        "native_gap_error": None if native else native_error(),
    }


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> float:
    """Highest percentile with at least ten samples beyond it (the max
    below 20 samples, where no percentile has ten beyond it)."""
    xs = sorted(xs)
    n = len(xs)
    if n < 20:
        return float(xs[-1])
    return float(xs[n - 11])


def iqr_share(xs) -> float:
    """Interquartile distance as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def peak_rss_mib() -> float:
    """Peak resident set of this process or of any child it waited for
    (the HTTP server, the encoder's shard workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def minor_faults() -> int:
    """Minor page faults of the calling thread plus reaped children."""
    return (resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)


# ------------------------------------------------------------ processes
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants, so that
    a grandchild whose parent exits first (a server's helper, a pool
    worker) is re-parented here and ``stop_children`` can wait for it.
    SIGTERM raises ``SystemExit`` so that the clean-up still runs; forked
    children get the default action back, because a pool worker that
    turns its parent's SIGTERM into ``SystemExit`` can block in its exit
    and leave the parent's pool waiting for it forever."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as they would anyway
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))


def _children() -> list[int]:
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except (OSError, ValueError):
            pass
    return pids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The program's process-sharded encoder creates shared memory, which
    starts multiprocessing's resource tracker; that helper would otherwise
    outlive the benchmark until it notices the closed pipe.  Closing its
    pipe and waiting for it is what the interpreter does at exit in later
    Python versions.  Any other child still running gets SIGTERM, then
    SIGKILL after ``grace`` seconds."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError, OSError):
        pass
    sig, deadline = signal.SIGTERM, time.monotonic() + grace
    while True:
        _reap()
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
