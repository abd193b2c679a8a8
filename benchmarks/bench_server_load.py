"""Online-serving benchmark — coalesced server vs one-request-at-a-time.

A load generator drives the :class:`repro.StencilServer` with a *skewed*
fingerprint popularity (a few hot kernels dominate, a tail of cold ones —
the shape real serving traffic has) under two arrival patterns:

* **closed-loop** — N client threads, each submitting its next request as
  soon as the previous one resolves (throughput-bound clients);
* **open-loop** — requests arrive on a fixed schedule regardless of
  completion (arrival-rate-bound clients; queueing shows up as latency).

The baseline is the pre-serving deployment: sequential, uncached
single-device ``session.solve`` calls, one compile per request.
Coalescing + the shared compile cache turn ``requests`` compiles into
``distinct fingerprints`` compiles, which is where the throughput multiple
comes from.

Regenerate with::

    pytest benchmarks/bench_server_load.py --benchmark-only -s
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from collections import Counter

from benchmarks.conftest import save_results
from repro import Problem, ServerConfig, StencilServer, StencilSession, make_grid
from repro.stencils.catalog import table2_benchmarks

#: Kernel popularity is skewed ~ Zipf: the first kernel gets half the
#: traffic, the next a quarter, and so on — the regime where fingerprint
#: coalescing pays most.
POPULARITY = (8, 4, 2, 1)
REQUESTS = 45
ITERATIONS = 2
GRID_2D = (96, 96)
GRID_1D = (4096,)
DEVICES = 2

_ROWS: dict = {}


def _workload():
    """Deterministic skewed problem stream over 4 distinct fingerprints."""
    kernels = [c for c in table2_benchmarks()
               if c.name in ("Heat-1D", "Heat-2D", "Box-2D9P", "Box-2D49P")]
    weighted = [k for kernel, weight in zip(kernels, POPULARITY)
                for k in [kernel] * weight]
    problems = []
    for i in range(REQUESTS):
        config = weighted[(i * 7) % len(weighted)]  # shuffled, deterministic
        shape = GRID_1D if config.pattern.ndim == 1 else GRID_2D
        problems.append(Problem(
            config.pattern, make_grid(shape, seed=i), ITERATIONS,
            tag=f"{config.name}/{i}"))
    return problems


def _run_sequential(problems):
    """The pre-serving baseline: one-at-a-time, one compile per request
    (``cache=None`` disables the session cache per call)."""
    outputs = []
    with StencilSession() as session:
        for problem in problems:
            outputs.append(session.solve(problem, mode="single",
                                         cache=None).output)
    return outputs


def _run_server_closed_loop(problems, clients=6):
    """Closed-loop: each client thread keeps one request in flight."""
    outputs = [None] * len(problems)
    executors = [None] * len(problems)
    cursor = iter(range(len(problems)))
    lock = threading.Lock()
    with StencilServer(devices=DEVICES,
                       config=ServerConfig(window_seconds=0.005,
                                           max_batch_size=16)) as server:
        def client():
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                result = server.submit_problem(problems[i]).result(timeout=300)
                outputs[i] = result.output
                executors[i] = result.executor

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        telemetry = server.metrics()
    return outputs, telemetry, executors


def _run_server_open_loop(problems, interval_seconds=0.001):
    """Open-loop: fixed arrival schedule, completion decoupled from arrival."""
    with StencilServer(devices=DEVICES,
                       config=ServerConfig(window_seconds=0.005,
                                           max_batch_size=16,
                                           queue_bound=2 * len(problems))
                       ) as server:
        handles = []
        for problem in problems:
            handles.append(server.submit_problem(problem))
            time.sleep(interval_seconds)
        results = [handle.result(timeout=300) for handle in handles]
        telemetry = server.metrics()
    return ([result.output for result in results], telemetry,
            [result.executor for result in results])


def test_server_load(benchmark):
    requests = _workload()
    distinct = {request.compile_request().fingerprint
                for request in requests}

    sequential_start = time.perf_counter()
    expected = _run_sequential(requests)
    sequential_seconds = time.perf_counter() - sequential_start

    result = {}

    def serve():
        start = time.perf_counter()
        outputs, telemetry, executors = _run_server_closed_loop(requests)
        result["seconds"] = time.perf_counter() - start
        result["outputs"] = outputs
        result["telemetry"] = telemetry
        result["executors"] = executors

    benchmark.pedantic(serve, rounds=1, iterations=1)
    server_seconds = result["seconds"]
    telemetry = result["telemetry"]

    for i, (got, want) in enumerate(zip(result["outputs"], expected)):
        assert np.array_equal(got, want), requests[i].tag

    open_start = time.perf_counter()
    open_outputs, open_telemetry, open_executors = _run_server_open_loop(
        requests)
    open_seconds = time.perf_counter() - open_start
    for i, (got, want) in enumerate(zip(open_outputs, expected)):
        assert np.array_equal(got, want), requests[i].tag

    speedup = sequential_seconds / server_seconds
    print(f"\n{REQUESTS} requests over {len(distinct)} fingerprints "
          f"(popularity {POPULARITY}):")
    print(f"  sequential one-at-a-time : {sequential_seconds * 1e3:8.1f} ms")
    print(f"  closed-loop coalesced    : {server_seconds * 1e3:8.1f} ms "
          f"({speedup:.1f}x)")
    print(f"  open-loop coalesced      : {open_seconds * 1e3:8.1f} ms")
    print(f"  coalescing ratio         : "
          f"{telemetry['coalescing']['ratio']:.2f}")
    print(f"  cache hit rate           : "
          f"{telemetry['cache']['hit_rate']:.2%}")
    print(f"  p50/p95/p99 latency      : "
          f"{telemetry['latency']['total']['p50_seconds'] * 1e3:.1f} / "
          f"{telemetry['latency']['total']['p95_seconds'] * 1e3:.1f} / "
          f"{telemetry['latency']['total']['p99_seconds'] * 1e3:.1f} ms")

    # acceptance: coalesced serving beats one-at-a-time by >= 2x on the
    # skewed workload, and actually coalesced (ratio > 1, one compile per
    # distinct fingerprint)
    assert speedup >= 2.0, f"serving speedup {speedup:.2f}x below 2x"
    assert telemetry["coalescing"]["ratio"] > 1.0
    assert telemetry["cache"]["misses"] == len(distinct)

    _ROWS["comparison"] = {
        "requests": REQUESTS,
        "distinct_fingerprints": len(distinct),
        "sequential_seconds": sequential_seconds,
        "server_seconds": server_seconds,
        "open_loop_seconds": open_seconds,
        "speedup": speedup,
    }
    _ROWS["telemetry"] = telemetry
    _ROWS["open_loop_telemetry"] = open_telemetry
    # session provenance: per-request routed modes, so the perf trajectory
    # distinguishes single-device micro-batches from sharded dispatches
    _ROWS["provenance"] = {
        "api": "session/served",
        "sequential_mode": "single",
        "closed_loop_executor_counts": dict(Counter(result["executors"])),
        "open_loop_executor_counts": dict(Counter(open_executors)),
    }


def test_server_load_save(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("no rows collected")
    path = save_results("server_load", _ROWS, config={
        "requests": REQUESTS,
        "iterations": ITERATIONS,
        "devices": DEVICES,
        "popularity": list(POPULARITY),
        "grid_2d": list(GRID_2D),
        "grid_1d": list(GRID_1D),
    })
    print(f"\nsaved server-load benchmark rows to {path}")