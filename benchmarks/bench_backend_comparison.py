"""Backend comparison — host wall-clock of the registered execution backends.

The registry's pitch (see the README's "Backends" section) is that the
``numpy`` backend runs the *same compiled plan* materially faster on the
host than the instrumented ``tcu-sim`` interpreter while billing identical
modelled device time and staying within the documented numerical tolerance.
This benchmark quantifies that claim per Table-2 kernel:

* host wall-clock of :func:`execute_compiled` per backend (min over rounds);
* the acceptance gate: the fast backend is **>= 2x** faster than
  ``tcu-sim`` on at least two catalog kernels;
* the tolerance gate: outputs agree within the fp16 device tolerance, and
  the modelled device seconds agree exactly.

Regenerate with::

    pytest benchmarks/bench_backend_comparison.py --benchmark-only -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_GRIDS, BENCH_ITERATIONS, save_results
from repro.core.codegen import available_backends
from repro.core.pipeline import compile_stencil, execute_compiled
from repro.stencils.catalog import table2_benchmarks
from repro.stencils.grid import make_grid

#: Fast backend under comparison (always available).
FAST_BACKEND = "numpy"

#: The acceptance gate from the backend-registry issue: the fast backend
#: must beat the tcu-sim interpreter by >= 2x wall-clock on at least
#: MIN_KERNELS_AT_TARGET catalog kernels.
TARGET_SPEEDUP = 2.0
MIN_KERNELS_AT_TARGET = 2

#: Documented numerical tolerance between backends: ``numpy`` is float64
#: exact, so the gap *is* ``tcu-sim``'s fp16 rounding envelope.  The
#: high-order star kernels get looser bounds for the same reason their
#: golden fixtures do (tests/golden/generate_golden.py): their weights sum
#: to ~0, which amplifies fp16 rounding each iteration.
BACKEND_TOL = 2e-2
BACKEND_TOL_OVERRIDES = {"Star-2D13P": 5e-1, "1D5P": 1e-1}

ROUNDS = 5

KERNELS = list(table2_benchmarks())

_ROWS: dict = {}


def _best_wall_clock(compiled, grid, iterations: int) -> tuple:
    best, output = float("inf"), None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = execute_compiled(compiled, grid, iterations)
        best = min(best, time.perf_counter() - start)
        output = result
    return best, output


@pytest.mark.parametrize("config", KERNELS, ids=lambda c: c.name)
def test_backend_wall_clock(benchmark, config):
    grid_shape = BENCH_GRIDS[config.pattern.ndim]
    grid = make_grid(grid_shape, kind="random", seed=3)
    sim_plan = compile_stencil(config.pattern, grid_shape, backend="tcu-sim")
    fast_plan = compile_stencil(config.pattern, grid_shape,
                                backend=FAST_BACKEND)

    sim_seconds, sim_result = _best_wall_clock(sim_plan, grid,
                                               BENCH_ITERATIONS)
    benchmark.pedantic(execute_compiled,
                       args=(fast_plan, grid, BENCH_ITERATIONS),
                       rounds=ROUNDS, iterations=1)
    fast_seconds = min(benchmark.stats.stats.data)
    fast_result = execute_compiled(fast_plan, grid, BENCH_ITERATIONS)
    speedup = sim_seconds / fast_seconds if fast_seconds > 0 else float("inf")

    # tolerance gate: same numbers within the documented fp16 envelope ...
    tolerance = BACKEND_TOL_OVERRIDES.get(config.name, BACKEND_TOL)
    drift = float(np.max(np.abs(sim_result.output.astype(np.float64)
                                - fast_result.output)))
    assert drift < tolerance, (
        f"{config.name}: backend outputs drifted {drift:.3e} "
        f"(tolerance {tolerance:.0e})")
    # ... and identical modelled device time (both bill the plan estimate)
    assert sim_result.elapsed_seconds == fast_result.elapsed_seconds

    print(f"\n{config.name:12s} tcu-sim {sim_seconds * 1e3:9.2f} ms, "
          f"{FAST_BACKEND} {fast_seconds * 1e3:7.2f} ms "
          f"({speedup:5.1f}x), max |drift| {drift:.2e}")
    _ROWS[config.name] = {
        "grid_shape": list(grid_shape),
        "iterations": BENCH_ITERATIONS,
        "tcu_sim_wall_seconds": sim_seconds,
        f"{FAST_BACKEND}_wall_seconds": fast_seconds,
        "wall_clock_speedup": speedup,
        "max_abs_drift": drift,
        "modelled_device_seconds": sim_result.elapsed_seconds,
    }


def test_backend_speedup_gate(benchmark, results_dir):
    """>= TARGET_SPEEDUP on >= MIN_KERNELS_AT_TARGET catalog kernels."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("no rows collected")
    at_target = sorted(name for name, row in _ROWS.items()
                       if row["wall_clock_speedup"] >= TARGET_SPEEDUP)
    print(f"\n{len(at_target)}/{len(_ROWS)} kernels at >= "
          f"{TARGET_SPEEDUP:.0f}x: {', '.join(at_target)}")
    assert len(at_target) >= MIN_KERNELS_AT_TARGET, (
        f"fast backend reached {TARGET_SPEEDUP:.0f}x on only "
        f"{len(at_target)} kernels: "
        f"{ {n: r['wall_clock_speedup'] for n, r in _ROWS.items()} }")
    path = save_results("backend_comparison", _ROWS, config={
        "fast_backend": FAST_BACKEND,
        "available_backends": available_backends(),
        "target_speedup": TARGET_SPEEDUP,
        "min_kernels_at_target": MIN_KERNELS_AT_TARGET,
        "backend_tolerance": BACKEND_TOL,
        "backend_tolerance_overrides": BACKEND_TOL_OVERRIDES,
        "rounds": ROUNDS,
        "bench_grids": {str(k): list(v) for k, v in BENCH_GRIDS.items()},
    })
    print(f"saved backend-comparison rows to {path}")
