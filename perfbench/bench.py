"""Core of the conedual benchmark: set-up, timed passes, metrics.

A run sets the workload up ``SETUP_REPEATS`` times (import of the package
from ``src/`` plus generation of the item pool) and keeps the last pool.
It then runs each item of the pool once, closed loop with one client: an
item's calls start when the previous item's calls have returned.  Only the
calls into the package are timed; each item is judged after its calls
return.

The speed of a shared machine drifts by tens of percent within a minute.
So a fixed reference kernel is timed between items, every
``SpeedProbe.interval`` seconds.  Each item's time is scaled by
``REFERENCE_S`` over the mean of the kernel times just before and just
after it, and each set-up likewise: times read as if the machine ran at
the speed it had when ``REFERENCE_S`` was taken.  Per-layer times of a
traced run are scaled by the run's mean kernel time.  The unscaled values
are printed with the run's details.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

from tracing import LAYERS, PACKAGE, Tracer
from workloads import FAILURE_FAMILIES, INCONCLUSIVE, WRONG, pool_size

SETUP_REPEATS = 3
TAIL_EXCESS = 10  # samples beyond the tail percentile

# About the time of ``reference_kernel`` on the 2-vCPU Intel Xeon sandbox
# the benchmark was defined on (Python 3.11, numpy 2.4, single-threaded
# OpenBLAS 0.3.31): median 8.8 ms, minimum 7.7 ms.  It sets the scale of
# every reported time.
REFERENCE_S = 0.008

_REF_RNG = np.random.default_rng(20221104)
_REF_SMALL = _REF_RNG.standard_normal((8, 6))
_REF_RHS = _REF_RNG.standard_normal(8)
_REF_SHORT = _REF_RNG.standard_normal(4)


def reference_kernel():
    """Fixed work of the kinds the workloads spend their time on: small
    least-squares solves (NNLS), validation and reductions of short vectors
    (cone membership, pairings) and scalar math in the interpreter (wedge
    geometry).  Over 2 s windows while the machine's speed drifted, each
    part's time tracked fixed blocks of workload items with correlation
    0.85 to 0.97; rank-one updates of a 65x130 array tracked them at 0.82
    to 0.90 and were left out."""
    for _ in range(200):
        np.linalg.lstsq(_REF_SMALL, _REF_RHS, rcond=None)
    for _ in range(600):
        v = np.asarray(_REF_SHORT, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("reference vector changed")
        float(np.min(v))
        np.linalg.norm(v)
    total = 0.0
    for i in range(8000):
        total += math.hypot(i, 1.0) * math.atan2(1.0, i + 1.0)
    return total


class SpeedProbe:
    """Times ``reference_kernel`` at most every ``interval`` seconds."""

    interval = 0.15

    def __init__(self):
        self.times = []
        self.marks = []  # probes taken before each ticked item
        self.last = -math.inf

    def tick(self):
        if time.perf_counter() - self.last >= self.interval:
            self.run()
        self.marks.append(len(self.times))

    def run(self):
        start = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def factor(self):
        """Multiplier that maps times of this run to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.times)

    def local_factors(self):
        """Per ticked item, the multiplier from the probes just before and after it."""
        t = np.asarray(self.times)
        k = np.asarray(self.marks)
        return REFERENCE_S / (0.5 * (t[k - 1] + t[k]))


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def load_package(root):
    """Import the package from ``root/src`` afresh; returns its modules.

    Modules already imported are dropped first, so every call pays the full
    import and nothing from an earlier set-up is reused.
    """
    src = Path(root) / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} package under {src}")
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS + ("errors",)}
    return types.SimpleNamespace(**modules)


def setup(workload, seed, seconds, root, probe):
    """Import the package and generate the pool.

    Returns the package, the items, and the set-up time scaled by the speed
    probes taken just before and just after it.
    """
    # Release an earlier set-up's pool before timing this one.
    gc.unfreeze()
    gc.collect()
    probe.run()
    start = time.perf_counter()
    cd = load_package(root)
    items = workload.make_items(cd, seed, pool_size(workload, seconds))
    elapsed = time.perf_counter() - start
    # The pool lives for the whole run; keep the collector from walking it
    # again and again, which would charge its size to the items.
    gc.collect()
    gc.freeze()
    probe.run()
    return cd, items, elapsed * REFERENCE_S / statistics.fmean(probe.times[-2:])


def run_pass(cd, workload, items, probe, tracer=None):
    """Run every item once; returns (per-item seconds, per-item judgement)."""
    families = tuple(getattr(cd.errors, name) for name in FAILURE_FAMILIES)
    times = []
    outcomes = []
    clock = time.perf_counter
    for index, item in enumerate(items):
        probe.tick()
        if tracer is not None:
            tracer.item = index
        start = clock()
        try:
            result = workload.execute(cd, item)
        except families as exc:
            times.append(clock() - start)
            outcomes.append(type(exc).__name__)
            continue
        times.append(clock() - start)
        outcomes.append(workload.judge(item, result))
    return times, outcomes


def tail_rank(count):
    """0-based index of the highest sample with ``TAIL_EXCESS`` samples above."""
    if count <= TAIL_EXCESS:
        raise BenchError(f"{count} samples leave no tail with {TAIL_EXCESS} beyond it")
    return count - TAIL_EXCESS - 1


def measure(workload, seed, seconds, root):
    """An untraced run; returns (result, details)."""
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        cd = items = None
        cd, items, elapsed = setup(workload, seed, seconds, root, probe)
        setups.append(elapsed)
    times, outcomes = run_pass(cd, workload, items, probe)
    probe.run()

    times = np.asarray(times)
    scaled = times * probe.local_factors()
    rank = tail_rank(len(times))
    failed = sum(o is not None for o in outcomes)

    def timing(t):
        ordered = np.sort(t)
        return len(t) / math.fsum(t), float(np.median(ordered)) * 1e3, float(ordered[rank]) * 1e3

    rate, p50, tail = timing(scaled)
    metrics = {
        "items_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "success_ratio": (1.0 - failed / len(items), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "items": len(items),
        "tail_percentile": 100.0 * (rank + 1) / len(items),
        "failures": {name: outcomes.count(name) for name in FAILURE_FAMILIES + (INCONCLUSIVE, WRONG)},
        "speed_factor": probe.factor(),
        "speed_probes": len(probe.times),
        "unscaled": dict(zip(("items_per_s", "latency_p50_ms", "latency_tail_ms"), timing(times))),
        "setup_runs_s": setups,
    }
    result = {
        "correct": WRONG not in outcomes,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details


def trace(workload, seed, seconds, root, spans_path):
    """A traced run over the first third of the pool, in whole cycles.

    The items run once untraced and then once traced, so the run takes about
    ``seconds``.  Per-layer values are per item; the spans of the first
    ``record_items`` items are written to ``spans_path``.
    """
    probe = SpeedProbe()
    cd, items, _ = setup(workload, seed, seconds, root, probe)
    items = items[: math.ceil(len(items) / 3 / workload.cycle) * workload.cycle]
    times, plain = run_pass(cd, workload, items, probe)
    untraced = math.fsum(times)
    tracer = Tracer(workload.record_items)
    tracer.install()
    try:
        times, seen = run_pass(cd, workload, items, probe, tracer)
    finally:
        tracer.uninstall()
    traced = math.fsum(times)
    probe.run()
    tracer.save(spans_path)

    factor = probe.factor()
    metrics = tracer.metrics(len(items))
    metrics = {name: value * factor if name.endswith("_s") else value for name, value in metrics.items()}
    metrics["trace.overhead_ratio"] = traced / untraced
    result = {
        "correct": WRONG not in seen and plain == seen,
        "attempted": 2 * len(items),
        "failed": sum(o is not None for o in plain + seen),
        "metrics": {name: {"value": value, "unit": per_layer_unit(name)} for name, value in metrics.items()},
    }
    details = {"items": len(items), "traced_matches_untraced": plain == seen, "speed_factor": factor}
    return result, details


def per_layer_unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s/item"
    if name.endswith("_bytes_computed"):
        return "B/item"
    return "count/item"


def environment():
    """What the numbers depend on besides the code."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": threads,
    }

