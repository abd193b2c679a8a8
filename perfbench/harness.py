"""Shared plumbing: percentiles, the closed loop, stamps and results.

Every workload module hands this module plain numbers; nothing here knows
about stencils.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: p90 is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
#: A closed-loop window keeps cycling until it holds this many operations,
#: so the p90 rule above always has its ten samples.
MIN_OPS = 110
#: Set-up is repeated at least this many times per run, and until the
#: repeats add up to :data:`SETUP_MIN_SECONDS`; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
#: Median time of :func:`host_probe` on the 2-vCPU host the bounds were set
#: on; the end-to-end timings are reported at this host speed.
PROBE_REFERENCE_S = 1.4e-3


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: Sequence[float], q: float = 0.9,
                    min_beyond: int = MIN_BEYOND) -> Tuple[float, bool]:
    """``(value, trusted)``: the ``q``-quantile, and whether at least
    ``min_beyond`` samples lie strictly above it.  An untrusted tail is
    still returned (the result line needs a number) but must be flagged."""
    value = percentile(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    return value, beyond >= min_beyond


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
_PROBE_GRID = np.random.default_rng(0).random((258, 258)).astype(np.float32)
_PROBE_TABLE = {index: str(index) for index in range(2000)}


def host_probe() -> float:
    """Wall time of one fixed unit of the benchmark's own work, half
    interpreter (dictionary lookups) and half numpy (a 5-point stencil on
    a 256x256 grid); nothing of the program under test runs in it.

    A shared 2-vCPU host ran the benchmark up to 1.7x faster or slower
    from one minute to the next, with its other tenants' load, and the
    operations and the probe slowed down together; timing the probe
    between passes measures how fast the host ran during the window."""
    grid = _PROBE_GRID.copy()
    t0 = time.perf_counter()
    total = 0
    for index in range(6000):
        total += len(_PROBE_TABLE[index % 2000])
    inner = grid[1:-1, 1:-1]
    for _ in range(3):
        inner[...] = 0.2 * (inner + grid[:-2, 1:-1] + grid[2:, 1:-1]
                            + grid[1:-1, :-2] + grid[1:-1, 2:])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------- #
# operation samples
# ---------------------------------------------------------------------- #
@dataclass
class Window:
    """What one measured window produced.

    ``first`` keeps the first correct result of each operation label (the
    deterministic per-case figures come from it), ``completed`` counts
    correct operations per label, ``probes`` the :func:`host_probe` times
    taken between passes, and ``extras`` carries workload-specific numbers
    (modelled rate, cell updates, load-generator lateness, ...).
    """

    latencies: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    errors: List[str] = field(default_factory=list)
    first: Dict[str, Any] = field(default_factory=dict)
    completed: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)

    def record_success(self, label: str, latency: float, result: Any) -> None:
        self.latencies.append(latency)
        self.labels.append(label)
        self.first.setdefault(label, result)
        self.completed[label] = self.completed.get(label, 0) + 1

    def record_failure(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    @property
    def ops_per_s(self) -> float:
        completed = self.attempted - self.failed
        return completed / self.elapsed if self.elapsed > 0 else 0.0

    def latency_summary(self) -> Dict[str, Any]:
        """Quantiles of the raw operation latencies, kept in the record."""
        p90, trusted = tail_percentile(self.latencies)
        return {"op_p50_s": percentile(self.latencies, 0.5),
                "op_p90_s": p90,
                "p90_trusted": trusted,
                "ops_per_s": self.ops_per_s,
                "samples": len(self.latencies)}

    def host_speed(self) -> float:
        """How fast the host ran during the window relative to the one the
        bounds were set on: :data:`PROBE_REFERENCE_S` over the median probe
        time (1.0 when no probe ran)."""
        if not self.probes:
            return 1.0
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    def case_medians(self) -> Dict[str, float]:
        """Median latency of each operation label over its repeats."""
        by_label: Dict[str, List[float]] = {}
        for label, latency in zip(self.labels, self.latencies):
            by_label.setdefault(label, []).append(latency)
        return {label: statistics.median(values)
                for label, values in by_label.items()}

    def steady_summary(self) -> Dict[str, Any]:
        """The end-to-end latency figures, read from each case's median.

        Each case (operation label) is first summarised by its median over
        the run's repeats.  ``op_p50_s`` and ``op_p90_s`` are quantiles of
        those medians, every case weighing the same, as whole passes ran;
        ``ops_per_s`` is the number of cases over the sum of the medians,
        the rate of one pass at the run's typical speed.  On a shared host
        a slow spell slows the operations that fall in it: it moves a raw
        tail quantile and the window's mean rate by its share of the run,
        but a case median only once it covers half of that case's repeats.
        p90 is trusted when at least :data:`MIN_BEYOND` operations belong
        to cases whose median lies above it.
        """
        medians = self.case_medians()
        typical = sorted(medians.values())
        p90 = percentile(typical, 0.9)
        beyond = sum(1 for label in self.labels if medians[label] > p90)
        return {"op_p50_s": percentile(typical, 0.5),
                "op_p90_s": p90,
                "p90_trusted": beyond >= MIN_BEYOND,
                "ops_per_s": len(typical) / sum(typical),
                "cases": len(typical),
                "samples": len(self.latencies)}


def closed_loop(cycle: Sequence[Tuple[str, Callable[[], Any],
                                      Callable[[Any], Optional[str]]]],
                seconds: float, *, min_ops: Optional[int] = None,
                around: Optional[Callable[[str], Any]] = None) -> Window:
    """Run whole passes over ``cycle`` until ``seconds`` of operation time
    have passed and at least ``min_ops`` operations completed.

    Each entry is ``(label, run, check)``: ``run()`` is the timed operation
    and ``check(result)`` the untimed oracle (``None`` = correct).  Only
    whole passes run, so every entry is sampled equally often whatever the
    machine speed.  The window's ``elapsed`` is the operations' own wall
    time, back to back; the benchmark's output checks and the
    :func:`host_probe` run after each pass are not in it.
    ``min_ops`` defaults to :data:`MIN_OPS`.
    ``around(label)``, when given, returns a context manager entered around
    each timed operation (the traced run's root span).
    """
    if min_ops is None:
        min_ops = MIN_OPS
    window = Window()
    while True:
        for label, run, check in cycle:
            window.attempted += 1
            t0 = time.perf_counter()
            try:
                if around is None:
                    result = run()
                    t1 = time.perf_counter()
                else:
                    with around(label):
                        t0 = time.perf_counter()
                        result = run()
                        t1 = time.perf_counter()
            except Exception:  # lint: allow-broad-except — counted, window goes on
                window.elapsed += time.perf_counter() - t0
                window.record_failure(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            window.elapsed += t1 - t0
            problem = check(result)
            if problem is not None:
                window.record_failure(f"{label}: {problem}")
                continue
            window.record_success(label, t1 - t0, result)
        window.probes.append(host_probe())
        if window.elapsed >= seconds and len(window.latencies) >= min_ops:
            return window
        if window.failed and not window.latencies:
            return window


def timed_setup(build: Callable[[], Any]) -> Tuple[Any, float, List[float]]:
    """Run ``build`` at least :data:`SETUP_REPEATS` times and until the
    repeats take :data:`SETUP_MIN_SECONDS`; keep the last state and report
    the median wall time (the first repeat also pays the process's lazy
    imports, which the median discards)."""
    times: List[float] = []
    state = None
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS):
        if state is not None and hasattr(state, "close"):
            state.close()
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times), times


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# the benchmark definition and the result line
# ---------------------------------------------------------------------- #
def load_definition() -> Dict[str, Any]:
    with BENCHMARK_FILE.open() as handle:
        return json.load(handle)


def metric_units(definition: Dict[str, Any], trace: bool) -> Dict[str, str]:
    section = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in definition[section]}


def result_line(definition: Dict[str, Any], trace: bool,
                values: Dict[str, float], *, correct: bool, attempted: int,
                failed: int) -> Dict[str, Any]:
    """The last stdout line: exactly the declared metrics of the section."""
    units = metric_units(definition, trace)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"undeclared {extra}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


# ---------------------------------------------------------------------- #
# stamps
# ---------------------------------------------------------------------- #
def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_sha() -> Optional[str]:
    """HEAD of the repository this benchmark sits in, if it is a checkout
    with git metadata (the benchmark also runs from plain source trees)."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over ``src/`` (paths and bytes), for trees without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, why: str, seed: int, trace: bool,
          inputs: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "numba": ("absent: the numba backend never runs here"
                  if importlib.util.find_spec("numba") is None
                  else _version("numba")),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "clock": "host wall clock (time.perf_counter); end-to-end timings "
                 "at the reference host speed (host_probe)",
        "inputs": inputs,
    }


def write_results(name: str, payload: Dict[str, Any]) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with path.open("w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
