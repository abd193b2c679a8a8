"""StencilServer end-to-end tests: the ISSUE acceptance criteria.

* concurrent submissions with duplicated fingerprints are bit-identical to
  sequential single-device session solves, with coalescing ratio > 1 and
  exactly one compile per distinct fingerprint;
* the scheduler routes large grids sharded and small grids single under one
  pool, with occupancy never exceeding the pool;
* submissions beyond the queue bound are rejected with a typed error and
  accepted ones are never dropped.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    DeadlineExceededError,
    Problem,
    QueueFullError,
    ServerClosedError,
    ServerConfig,
    StencilServer,
    make_grid,
)
from repro.service import CompileCache
from repro.stencils.pattern import StencilPattern


def serving_workload():
    """12 requests over 3 distinct fingerprints, duplicated and interleaved."""
    heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")
    box = StencilPattern.box(2, 1, name="box-2d9p")
    wave = StencilPattern.star(1, 2, name="wave-1d")
    patterns = [heat, box, wave, heat, heat, box,
                wave, heat, box, heat, wave, box]
    requests = []
    for i, pattern in enumerate(patterns):
        shape = (512,) if pattern.ndim == 1 else (40, 44)
        requests.append((pattern, make_grid(shape, seed=i), 2 + i % 3, str(i)))
    return requests


def solve_alone(session, pattern, grid, iterations, **options):
    """One sequential, uncached single-device solve."""
    return session.solve(Problem(pattern, grid, iterations, options=options),
                         mode="single", cache=None)


class TestEndToEnd:
    def test_concurrent_submissions_bit_identical_with_coalescing(self,
                                                                  session):
        """The headline acceptance test."""
        requests = serving_workload()
        expected = [solve_alone(session, p, g, it).output
                    for p, g, it, _ in requests]
        cache = CompileCache()
        results = [None] * len(requests)
        errors = []

        with StencilServer(devices=2, cache=cache,
                           config=ServerConfig(window_seconds=0.05)) as server:
            barrier = threading.Barrier(len(requests))

            def client(i):
                pattern, grid, iterations, tag = requests[i]
                barrier.wait()  # all submissions land concurrently
                try:
                    handle = server.submit_problem(
                        Problem(pattern, grid, iterations, tag=tag))
                    results[i] = handle.result(timeout=120)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append((i, exc))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(requests))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            metrics = server.metrics()

        assert not errors
        for i, result in enumerate(results):
            assert np.array_equal(result.output, expected[i]), i
            assert result.tag == str(i)
            assert result.run.tag == str(i)

        distinct = {r.fingerprint for r in results}
        assert len(distinct) == 3
        # exactly one compile per distinct fingerprint, asserted on the
        # injected cache's stats
        stats = cache.snapshot_stats()
        assert stats.misses == 3
        assert stats.hits == metrics["cache"]["hits"] > 0
        # coalescing actually happened
        assert metrics["coalescing"]["ratio"] > 1.0
        assert metrics["coalescing"]["requests_dispatched"] == len(requests)
        assert metrics["completed"] == len(requests)
        assert metrics["failed"] == 0

    def test_routing_under_one_pool_with_occupancy_bound(self, session):
        heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                                   name="heat-2d")
        big_grid = make_grid((2048, 2048), seed=1)
        small_grid = make_grid((64, 64), seed=2)
        with StencilServer(devices=4,
                           config=ServerConfig(window_seconds=0.01)) as server:
            big = server.submit_problem(Problem(heat, big_grid, 2, tag="big"))
            small = server.submit_problem(
                Problem(heat, small_grid, 2, tag="small"))
            big_result = big.result(timeout=300)
            small_result = small.result(timeout=300)
            metrics = server.metrics()

        assert big_result.executor == "sharded"
        assert big_result.devices >= 2
        assert small_result.executor == "single"
        assert small_result.devices == 1
        # occupancy invariant: the ledger's high-water mark never passed the
        # pool size
        assert metrics["devices"]["peak_in_use"] <= 4
        assert metrics["devices"]["in_use"] == 0
        # the sharded run is still bit-identical to the direct solve
        expected = solve_alone(session, heat, big_grid, 2)
        assert np.array_equal(big_result.output, expected.output)

    def test_backpressure_rejects_typed_and_drops_nothing(self, heat2d):
        config = ServerConfig(queue_bound=2, max_batch_size=1,
                              window_seconds=0.0)
        with StencilServer(devices=1, config=config) as server:
            # hold the only device so dispatch stalls and the queue fills
            lease = server.scheduler.ledger.acquire(1)
            handles, rejections = [], []
            for i in range(10):
                try:
                    handles.append(server.submit_problem(Problem(
                        heat2d, make_grid((40, 44), seed=i), 2, tag=str(i))))
                except QueueFullError as exc:
                    rejections.append(exc)
            assert rejections, "queue bound never triggered"
            assert len(handles) + len(rejections) == 10
            for exc in rejections:
                assert exc.bound == 2
            server.scheduler.ledger.release(lease)
            # never dropped silently: every accepted request completes
            results = [h.result(timeout=120) for h in handles]
            metrics = server.metrics()

        assert all(r.output.shape == (40, 44) for r in results)
        assert metrics["completed"] == len(handles)
        assert metrics["rejected"]["total"] == len(rejections)
        assert metrics["rejected"]["QueueFullError"] == len(rejections)

    def test_deadline_expires_in_queue(self, heat2d):
        config = ServerConfig(max_batch_size=1, window_seconds=0.0)
        with StencilServer(devices=1, config=config) as server:
            lease = server.scheduler.ledger.acquire(1)
            alive = server.submit_problem(
                Problem(heat2d, make_grid((40, 44), seed=0), 2))
            doomed = server.submit_problem(
                Problem(heat2d, make_grid((40, 44), seed=1), 2),
                deadline_seconds=0.05)
            threading.Event().wait(0.2)  # let the deadline lapse while held
            server.scheduler.ledger.release(lease)
            assert alive.result(timeout=120).output is not None
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=120)
            metrics = server.metrics()
        assert metrics["failed"] >= 1
        # expired-in-queue is a post-admission *failure*, not a rejection
        assert metrics["failures"]["DeadlineExceededError"] >= 1
        assert metrics["rejected"]["total"] == 0

    def test_dead_on_arrival_deadline_rejected_at_submit(self, heat2d):
        with StencilServer(devices=1) as server:
            with pytest.raises(DeadlineExceededError):
                server.submit_problem(
                    Problem(heat2d, make_grid((40, 44), seed=0), 2),
                    deadline_seconds=-1.0)

    def test_shutdown_without_drain_fails_queued_typed(self, heat2d):
        config = ServerConfig(max_batch_size=1, window_seconds=0.0)
        server = StencilServer(devices=1, config=config)
        lease = server.scheduler.ledger.acquire(1)
        handles = [server.submit_problem(
                       Problem(heat2d, make_grid((40, 44), seed=i), 2))
                   for i in range(4)]
        server.shutdown(drain=False)
        server.scheduler.ledger.release(lease)
        outcomes = []
        for handle in handles:
            try:
                outcomes.append(handle.result(timeout=120))
            except ServerClosedError:
                outcomes.append("closed")
        # at least the deep-queued requests were failed with the typed error,
        # and every handle resolved one way or the other — nothing hangs
        assert "closed" in outcomes
        with pytest.raises(ServerClosedError):
            server.submit_problem(
                Problem(heat2d, make_grid((40, 44), seed=9), 2))

    def test_shutdown_is_idempotent_and_drain_empties(self, heat2d):
        server = StencilServer(devices=1)
        handle = server.submit_problem(
            Problem(heat2d, make_grid((40, 44), seed=0), 2))
        server.drain()
        assert handle.done()
        assert server.pending == 0
        server.shutdown()
        server.shutdown()  # second call is a no-op

    def test_compile_options_flow_through_submit(self, session, heat2d):
        from repro.tcu.spec import DataType
        with StencilServer(devices=1) as server:
            handle = server.submit_problem(
                Problem(heat2d, make_grid((40, 44), seed=0), 2,
                        options={"dtype": DataType.TF32}))
            result = handle.result(timeout=120)
        expected = solve_alone(session, heat2d, make_grid((40, 44), seed=0),
                               2, dtype=DataType.TF32)
        assert np.array_equal(result.output, expected.output)

    def test_metrics_snapshot_is_plain_data(self, heat2d):
        import json
        with StencilServer(devices=1) as server:
            server.submit_problem(
                Problem(heat2d, make_grid((40, 44), seed=0), 2)).result(120)
            metrics = server.metrics()
        # exported as a plain dict: must survive JSON round-tripping
        restored = json.loads(json.dumps(metrics))
        for key in ("submitted", "completed", "rejected", "coalescing",
                    "latency", "routing", "queue", "cache", "devices"):
            assert key in restored
        assert restored["latency"]["total"]["p50_seconds"] > 0.0
        assert restored["queue"]["bound"] == ServerConfig().queue_bound
