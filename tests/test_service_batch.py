"""Batched solve service tests: output equivalence with sequential uncached
solves and compile-once-per-fingerprint guarantees.

Batches go through ``StencilSession.solve_batch(problems, cache=None)``, which
compiles through a private per-batch cache unless a cache is passed."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.core.pipeline
from repro.service import CompileCache
from repro.session import Problem
from repro.stencils.grid import make_grid
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import DataType


def mixed_requests():
    """8 mixed requests over 4 distinct compile fingerprints.

    A slice of the benchmark catalog's diversity: 1D and 2D kernels, star and
    box shapes, repeated fingerprints with different grid *data* (same shape)
    and one dtype variant.
    """
    heat1d = StencilPattern.star(1, 1, weights=[0.5, 0.25, 0.25], name="heat-1d")
    heat2d = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                                 name="heat-2d")
    box2d = StencilPattern.box(2, 1, name="box-2d9p")
    return [
        Problem(heat1d, make_grid((256,), seed=0), 2, tag="a"),
        Problem(heat2d, make_grid((40, 44), seed=1), 2, tag="b"),
        Problem(heat2d, make_grid((40, 44), seed=2), 3, tag="c"),
        Problem(box2d, make_grid((40, 44), seed=3), 2, tag="d"),
        Problem(heat1d, make_grid((256,), seed=4), 4, tag="e"),
        Problem(box2d, make_grid((40, 44), seed=5), 2,
                options={"dtype": DataType.TF32}, tag="f"),
        Problem(heat2d, make_grid((40, 44), seed=6), 2, tag="g"),
        Problem(box2d, make_grid((40, 44), seed=7), 2, tag="h"),
    ]


def solve_alone(session, problem):
    """One sequential, uncached single-device solve of ``problem``."""
    return session.solve(problem, mode="single", cache=None).result


class TestSolveMany:
    def test_matches_sequential_uncached_solves(self, session):
        requests = mixed_requests()
        report = session.solve_batch(requests, cache=None)
        assert len(report.items) == len(requests)
        for request, item in zip(requests, report.items):
            expected = solve_alone(session, request)
            assert np.array_equal(item.result.output, expected.output), request.tag
            assert item.result.elapsed_seconds == expected.elapsed_seconds
            assert item.request is request

    def test_compiles_each_distinct_fingerprint_exactly_once(self, session,
                                                             monkeypatch):
        requests = mixed_requests()
        lock = threading.Lock()
        searches = []
        original = repro.core.pipeline.search_layout

        def counting_search(pattern, grid_shape, **kwargs):
            with lock:
                searches.append((pattern.name, tuple(grid_shape)))
            return original(pattern, grid_shape, **kwargs)

        monkeypatch.setattr(repro.core.pipeline, "search_layout", counting_search)
        report = session.solve_batch(requests, cache=None)
        distinct = {req.compile_request().fingerprint for req in requests}
        assert report.distinct_plans == len(distinct) == 4
        assert report.compiles_performed == len(distinct)
        assert len(searches) == len(distinct)

    def test_warm_cache_compiles_nothing(self, session):
        requests = mixed_requests()
        cache = CompileCache()
        first = session.solve_batch(requests, cache=cache)
        assert first.compiles_performed == 4
        assert first.cache_hit_rate == 0.0
        second = session.solve_batch(requests, cache=cache)
        assert second.compiles_performed == 0
        assert second.cache_hits == 4
        # per-batch attribution: the warm batch reports 100% reuse even
        # though the shared cache's lifetime rate is only 50%
        assert second.cache_hit_rate == 1.0
        assert second.summary()["cache_lifetime_hit_rate"] == pytest.approx(0.5)
        assert cache.stats.misses == 4
        for a, b in zip(first.items, second.items):
            assert np.array_equal(a.result.output, b.result.output)

    def test_items_keep_their_own_pattern_identity(self, session):
        alpha = StencilPattern.star(2, 1, name="alpha")
        beta = StencilPattern.star(2, 1, name="beta")  # same taps, new name
        report = session.solve_batch([
            Problem(alpha, make_grid((40, 44), seed=0), 2),
            Problem(beta, make_grid((40, 44), seed=1), 2),
        ], cache=None)
        assert report.distinct_plans == 1
        names = [item.compiled.original_pattern.name for item in report.items]
        assert names == ["alpha", "beta"]

    def test_report_stats_are_a_snapshot(self, session):
        requests = mixed_requests()
        cache = CompileCache()
        first = session.solve_batch(requests, cache=cache)
        hit_rate_then = first.cache_stats.hit_rate
        # warm reuse mutates the live stats
        session.solve_batch(requests, cache=cache)
        assert first.cache_stats.hit_rate == hit_rate_then
        assert first.cache_stats is not cache.stats

    def test_shared_plan_flag_and_order(self, session):
        requests = mixed_requests()
        report = session.solve_batch(requests, cache=None)
        by_tag = {item.tag: item for item in report.items}
        assert [item.tag for item in report.items] == list("abcdefgh")
        # heat2d (b, c, g) and heat1d (a, e) and fp16-box (d, h) share plans;
        # the tf32 box request (f) is alone on its fingerprint.
        assert by_tag["b"].shared_plan and by_tag["c"].shared_plan
        assert by_tag["b"].compiled is by_tag["c"].compiled is by_tag["g"].compiled
        assert by_tag["d"].compiled is by_tag["h"].compiled
        assert not by_tag["f"].shared_plan
        assert by_tag["f"].compiled.plan.dtype == DataType.TF32

    def test_aggregate_metrics(self, session):
        report = session.solve_batch(mixed_requests(), cache=None)
        summary = report.summary()
        assert summary["requests"] == 8
        assert summary["distinct_plans"] == 4
        assert report.total_device_seconds > 0
        assert report.aggregate_gstencil_per_second > 0
        assert summary["amortized_compile_seconds"] == pytest.approx(
            report.compile_wall_seconds / 8)
        assert summary["compiles_performed"] == 4

    def test_serial_worker_path(self, session, monkeypatch):
        report = session.solve_batch(mixed_requests(), max_workers=1,
                                     cache=None)
        assert report.distinct_plans == 4
        assert report.compiles_performed == 4

    def test_single_request_batch(self, session):
        request = mixed_requests()[0]
        report = session.solve_batch([request], cache=None)
        expected = solve_alone(session, request)
        assert np.array_equal(report.items[0].result.output, expected.output)

    def test_empty_batch_rejected(self, session):
        with pytest.raises(Exception):
            session.solve_batch([], cache=None)


class TestTagPropagation:
    def test_tags_flow_into_batch_items_and_results(self, session):
        requests = mixed_requests()
        report = session.solve_batch(requests, cache=None)
        for request, item in zip(requests, report.items):
            assert item.tag == request.tag
            # the tag is stamped onto the run result itself, so it survives
            # leaving the BatchItem wrapper
            assert item.result.tag == request.tag
        assert set(report.by_tag()) == set("abcdefgh")
        assert report.by_tag()["c"].request.iterations == 3

    def test_untagged_requests_stay_untagged(self, session, heat2d):
        report = session.solve_batch(
            [Problem(heat2d, make_grid((40, 44), seed=0), 2)], cache=None)
        assert report.items[0].tag is None
        assert report.items[0].result.tag is None
        assert report.by_tag() == {}

    def test_solve_sharded_tag_propagates(self, session, heat2d):
        grid = make_grid((64, 64), seed=3)
        tagged = session.solve(Problem(heat2d, grid, 2, tag="east-rack"),
                               mode="sharded", devices=2, cache=None).result
        assert tagged.tag == "east-rack"
        untagged = session.solve(Problem(heat2d, grid, 2), mode="sharded",
                                 devices=2, cache=None).result
        assert untagged.tag is None
        # the stamp changes attribution only, never the numbers
        assert np.array_equal(tagged.output, untagged.output)
        assert tagged.elapsed_seconds == untagged.elapsed_seconds


class TestRunStencilBatch:
    def test_returns_results_in_request_order(self, session):
        requests = mixed_requests()
        results = session.solve_batch(requests, cache=None).results
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.output.shape == request.grid.shape
            assert result.iterations == request.iterations
