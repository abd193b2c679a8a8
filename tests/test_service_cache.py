"""Compilation-cache tests: key stability, LRU bounds, persistence and the
warm-path guarantee (a hit skips every compile stage)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.core.conversion
import repro.core.layout_search
import repro.core.morphing
import repro.core.pipeline
from repro.core.pipeline import compile_stencil
from repro.service import CompileCache, CompileRequest, compile_fingerprint, pattern_fingerprint
from repro.session import Problem
from repro.stencils.grid import make_grid
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import A100_SPEC, DataType


class TestFingerprintKeys:
    def test_same_request_same_fingerprint(self, heat2d):
        a = CompileRequest.build(heat2d, (40, 44))
        b = CompileRequest.build(heat2d, (40, 44))
        assert a.fingerprint == b.fingerprint
        assert a == b
        assert hash(a) == hash(b)

    def test_rename_is_not_a_new_plan(self, heat2d):
        renamed = StencilPattern(
            name="totally-different-name", ndim=heat2d.ndim,
            offsets=heat2d.offsets, weights=heat2d.weights, kind=heat2d.kind)
        a = CompileRequest.build(heat2d, (40, 44))
        b = CompileRequest.build(renamed, (40, 44))
        assert a.fingerprint == b.fingerprint

    def test_engine_auto_resolves_to_concrete_engine(self, heat2d):
        auto = CompileRequest.build(heat2d, (40, 44), engine="auto")
        explicit = CompileRequest.build(heat2d, (40, 44), engine="sparse_mma")
        assert auto.fingerprint == explicit.fingerprint

    def test_ignored_r1_r2_do_not_change_fingerprint(self, heat2d):
        # with search=True the explicit extents are dead arguments
        base = CompileRequest.build(heat2d, (40, 44))
        noisy = CompileRequest.build(heat2d, (40, 44), r1=4, r2=2)
        assert base.fingerprint == noisy.fingerprint
        cache = CompileCache()
        cache.get_or_compile(base)
        cache.get_or_compile(noisy)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_default_r2_canonicalised_for_fixed_layouts(self, heat2d, heat1d):
        # omitted r2 means 1; any r2 on a 1D pattern is ignored entirely
        implicit = CompileRequest.build(heat2d, (40, 44), search=False, r1=4)
        explicit = CompileRequest.build(heat2d, (40, 44), search=False,
                                        r1=4, r2=1)
        assert implicit.fingerprint == explicit.fingerprint
        one_d = CompileRequest.build(heat1d, (256,), search=False, r1=8)
        one_d_noisy = CompileRequest.build(heat1d, (256,), search=False,
                                           r1=8, r2=5)
        assert one_d.fingerprint == one_d_noisy.fingerprint

    @pytest.mark.parametrize("change", [
        dict(grid_shape=(44, 44)),
        dict(dtype=DataType.TF32),
        dict(engine="dense_mma"),
        dict(temporal_fusion=2),
        dict(conversion_method="greedy"),
        dict(search=False, r1=4, r2=2),
        dict(spec=A100_SPEC.with_overrides(global_bandwidth_gbs=2039.0)),
        dict(block_hint=(32, 64)),
    ])
    def test_any_field_change_changes_fingerprint(self, heat2d, change):
        base = CompileRequest.build(heat2d, (40, 44))
        grid_shape = change.pop("grid_shape", (40, 44))
        other = CompileRequest.build(heat2d, grid_shape, **change)
        assert base.fingerprint != other.fingerprint

    def test_weight_and_offset_changes_change_fingerprint(self, heat2d):
        base = pattern_fingerprint(heat2d)
        nudged = heat2d.with_weights(
            [w + (1e-12 if i == 0 else 0.0) for i, w in enumerate(heat2d.weights)])
        assert pattern_fingerprint(nudged) != base
        fewer = StencilPattern(
            name=heat2d.name, ndim=2, offsets=heat2d.offsets[:-1],
            weights=heat2d.weights[:-1])
        assert pattern_fingerprint(fewer) != base

    def test_tap_order_is_canonicalised(self, heat2d):
        reordered = StencilPattern(
            name=heat2d.name, ndim=2,
            offsets=tuple(reversed(heat2d.offsets)),
            weights=tuple(reversed(heat2d.weights)))
        assert pattern_fingerprint(reordered) == pattern_fingerprint(heat2d)


class TestCompileCache:
    def test_hit_and_miss_accounting(self, heat2d):
        cache = CompileCache()
        first = cache.compile(heat2d, (40, 44))
        second = cache.compile(heat2d, (40, 44))
        assert first is second
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == 1
        snapshot = cache.snapshot_stats()
        assert snapshot is not cache.stats
        assert snapshot.as_dict() == cache.stats.as_dict()

    def test_distinct_requests_miss(self, heat2d, box2d9p):
        cache = CompileCache()
        cache.compile(heat2d, (40, 44))
        cache.compile(box2d9p, (40, 44))
        cache.compile(heat2d, (44, 44))
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0
        assert len(cache) == 3

    def test_lru_eviction(self, heat2d, box2d9p, heat1d):
        cache = CompileCache(capacity=2)
        a = CompileRequest.build(heat1d, (256,))
        b = CompileRequest.build(heat2d, (40, 44))
        c = CompileRequest.build(box2d9p, (40, 44))
        cache.get_or_compile(a)
        cache.get_or_compile(b)
        cache.get_or_compile(a)          # refresh a: b is now LRU
        cache.get_or_compile(c)          # evicts b
        assert cache.stats.evictions == 1
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)
        misses = cache.stats.misses
        cache.get_or_compile(b)          # recompiles
        assert cache.stats.misses == misses + 1

    def test_cached_solve_bit_identical_to_uncached(self, session, heat2d,
                                                    small_grid_2d):
        cache = CompileCache()
        # warm the cache, then solve through it
        cache.compile(heat2d, small_grid_2d.shape)
        problem = Problem(heat2d, small_grid_2d, 3)
        cached = session.solve(problem, mode="single", cache=cache).result
        uncached = session.solve(problem, mode="single", cache=None).result
        assert np.array_equal(cached.output, uncached.output)
        assert cached.elapsed_seconds == uncached.elapsed_seconds
        assert cached.sweeps == uncached.sweeps

    def test_warm_solve_skips_all_compile_stages(self, session, heat2d,
                                                 small_grid_2d, monkeypatch):
        """Acceptance: a warm-cache solve runs neither morphing, conversion
        nor layout search, and spends zero stage-timer compile seconds."""
        cache = CompileCache()
        problem = Problem(heat2d, small_grid_2d, 2)
        session.solve(problem, mode="single", cache=cache)
        compile_seconds_cold = cache.stats.compile_seconds
        assert compile_seconds_cold > 0.0

        calls = {"search": 0, "morph": 0, "convert": 0}

        def counting(target, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return target(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            repro.core.pipeline, "search_layout",
            counting(repro.core.pipeline.search_layout, "search"))
        monkeypatch.setattr(
            repro.core.morphing, "morph_kernel_matrix",
            counting(repro.core.morphing.morph_kernel_matrix, "morph"))
        monkeypatch.setattr(
            repro.core.conversion, "convert_to_24",
            counting(repro.core.conversion.convert_to_24, "convert"))

        warm = session.solve(problem, mode="single", cache=cache).result
        assert calls == {"search": 0, "morph": 0, "convert": 0}
        # stage-timer assertion: no additional compile wall time was spent
        assert cache.stats.compile_seconds == compile_seconds_cold
        assert cache.stats.hits == 1
        assert warm.output.shape == small_grid_2d.shape

    def test_hit_carries_the_requesters_pattern_identity(self, session, heat2d,
                                                         small_grid_2d):
        cache = CompileCache()
        cache.compile(heat2d, small_grid_2d.shape)
        renamed = StencilPattern(
            name="renamed-heat", ndim=heat2d.ndim, offsets=heat2d.offsets,
            weights=heat2d.weights, kind=heat2d.kind)
        hit = cache.compile(renamed, small_grid_2d.shape)
        assert cache.stats.hits == 1
        assert hit.original_pattern.name == "renamed-heat"
        assert hit.plan.summary()["pattern"].startswith("renamed-heat")
        assert hit.search is not None
        assert hit.search.pattern_name == "renamed-heat"
        # operands are shared, numerics identical
        original = cache.compile(heat2d, small_grid_2d.shape)
        assert hit.plan.a_operand is original.plan.a_operand
        assert np.array_equal(
            session.run(hit, small_grid_2d, 2).output,
            session.run(original, small_grid_2d, 2).output)

    def test_warm_lookup_does_not_refuse_the_pattern(self, box2d49p,
                                                     monkeypatch):
        """A warm hit must not re-run temporal fusion (dense convolutions)."""
        cache = CompileCache()
        cache.compile(box2d49p, (60, 60), temporal_fusion=2)
        calls = []
        original = repro.core.pipeline.fuse_pattern
        monkeypatch.setattr(repro.core.pipeline, "fuse_pattern",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        warm = cache.compile(box2d49p, (60, 60), temporal_fusion=2)
        assert cache.stats.hits == 1
        assert calls == []
        assert warm.temporal_fusion == 2

    def test_lock_table_bounded_by_eviction(self, heat1d, heat2d, box2d9p):
        cache = CompileCache(capacity=1)
        for pattern, shape in [(heat1d, (256,)), (heat2d, (40, 44)),
                               (box2d9p, (40, 44))]:
            cache.get_or_compile(CompileRequest.build(pattern, shape))
        assert cache.stats.evictions == 2
        assert len(cache._compile_locks) <= 2  # resident + newest in-flight

    def test_concurrent_same_request_compiles_once(self, heat2d):
        cache = CompileCache()
        request = CompileRequest.build(heat2d, (40, 44))
        results = []

        def worker():
            results.append(cache.get_or_compile(request))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats.misses == 1
        assert all(r is results[0] for r in results)


class TestRebrandHelper:
    """`rebrand` is the public cross-module helper that serves one cached
    plan to many differently named (but semantically equal) requests."""

    def test_equal_pattern_returns_same_object(self, heat2d):
        from repro.service import rebrand
        request = CompileRequest.build(heat2d, (40, 44))
        compiled = request.compile()
        assert rebrand(compiled, request) is compiled

    def test_renamed_request_swaps_identity_shares_operands(self, heat2d):
        from repro.service import rebrand
        compiled = CompileRequest.build(heat2d, (40, 44)).compile()
        renamed = StencilPattern(
            name="renamed", ndim=heat2d.ndim, offsets=heat2d.offsets,
            weights=heat2d.weights, kind=heat2d.kind)
        rebranded = rebrand(compiled,
                            CompileRequest.build(renamed, (40, 44)))
        assert rebranded is not compiled
        assert rebranded.original_pattern.name == "renamed"
        assert rebranded.plan.pattern.name == "renamed"
        assert rebranded.search.pattern_name == "renamed"
        # operands are shared, not copied — rebranding is metadata-only
        assert rebranded.plan.a_operand is compiled.plan.a_operand
        assert rebranded.plan.lut is compiled.plan.lut

    def test_exported_and_aliased(self):
        import repro.service.cache as cache_module
        from repro.service import rebrand
        assert "rebrand" in cache_module.__all__
        assert rebrand is cache_module.rebrand
        # the old private name keeps working for out-of-tree callers
        assert cache_module._rebrand is rebrand


class TestPersistence:
    def test_disk_round_trip(self, session, heat2d, small_grid_2d, tmp_path):
        warm_dir = tmp_path / "plans"
        first = CompileCache(persist_dir=warm_dir)
        compiled = first.compile(heat2d, small_grid_2d.shape)
        assert first.stats.misses == 1
        assert list(warm_dir.glob("*.plan.pkl"))

        # A fresh process (new cache) starts warm from disk: the compile
        # pipeline must not run again.
        second = CompileCache(persist_dir=warm_dir)
        reloaded = second.compile(heat2d, small_grid_2d.shape)
        assert second.stats.misses == 0
        assert second.stats.disk_hits == 1
        # the avoided recompile is credited with the *persisted* compile cost,
        # so disk-warmed caches don't under-report savings
        assert second.stats.saved_seconds == pytest.approx(
            first.stats.compile_seconds)
        third = second.compile(heat2d, small_grid_2d.shape)  # memory hit
        assert third is reloaded
        assert second.stats.saved_seconds == pytest.approx(
            2 * first.stats.compile_seconds)
        assert np.array_equal(reloaded.plan.a_operand, compiled.plan.a_operand)
        result = session.run(reloaded, small_grid_2d, 2)
        expected = session.run(compiled, small_grid_2d, 2)
        assert np.array_equal(result.output, expected.output)

    def test_unpicklable_plan_does_not_fail_the_solve(self, tmp_path):
        pattern = StencilPattern.star(2, 1)
        pattern.metadata["callback"] = lambda: None  # pickle chokes on this
        cache = CompileCache(persist_dir=tmp_path / "plans")
        compiled = cache.compile(pattern, (40, 44))  # must not raise
        assert compiled is not None
        assert not list((tmp_path / "plans").glob("*.tmp"))

    def test_clear_can_remove_persisted_plans(self, heat2d, tmp_path):
        warm_dir = tmp_path / "plans"
        cache = CompileCache(persist_dir=warm_dir)
        cache.compile(heat2d, (40, 44))
        cache.clear()  # default keeps disk: a later lookup resurrects
        cache.compile(heat2d, (40, 44))
        assert cache.stats.disk_hits == 1
        cache.clear(remove_persisted=True)
        assert not list(warm_dir.glob("*.plan.pkl"))
        cache.compile(heat2d, (40, 44))
        assert cache.stats.disk_hits == 0 and cache.stats.misses == 1

    def test_stale_version_stamp_is_a_miss(self, heat2d, tmp_path, monkeypatch):
        import repro.service.cache as cache_module
        warm_dir = tmp_path / "plans"
        CompileCache(persist_dir=warm_dir).compile(heat2d, (40, 44))
        monkeypatch.setattr(cache_module, "_pipeline_version", lambda: "0.0.0-other")
        fresh = CompileCache(persist_dir=warm_dir)
        fresh.compile(heat2d, (40, 44))
        # the other build's plan must not be served
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses == 1

    def test_corrupt_persisted_plan_is_a_miss(self, heat2d, tmp_path):
        warm_dir = tmp_path / "plans"
        cache = CompileCache(persist_dir=warm_dir)
        cache.compile(heat2d, (40, 44))
        (path,) = warm_dir.glob("*.plan.pkl")
        path.write_bytes(b"not a pickle")
        fresh = CompileCache(persist_dir=warm_dir)
        fresh.compile(heat2d, (40, 44))
        assert fresh.stats.misses == 1
        assert fresh.stats.disk_hits == 0
