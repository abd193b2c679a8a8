"""Sharded-execution tests: bit-identical equivalence against the golden
fixtures (including deep halos), shard-plan fingerprint sharing, the halo
accounting, and the scaling / deep-halo tradeoff analysis."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from golden.generate_golden import CASES as GOLDEN_CASES, fixture_path

from repro import (
    Problem,
    StencilSession,
    compile_stencil,
    get_benchmark,
    make_grid,
)
from repro.analysis import (deep_halo_tradeoff, per_shard_utilization,
                            sharded_scaling)
from repro.engine import ShardedExecutor, SweepExecutor
from repro.engine.sharded import model_round, model_schedule
from repro.service import CompileCache
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import MultiDeviceSpec, multi_a100
from repro.util.validation import ValidationError

#: The canonical golden case list, owned by tests/golden/generate_golden.py
#: (name, grid, iterations, seed, boundary — the tolerance column is the
#: regression suite's concern).
CASES = [c[:5] for c in GOLDEN_CASES]


def workload(name, grid_shape, seed, boundary="dirichlet"):
    config = get_benchmark(name)
    return config.pattern, make_grid(grid_shape, kind="random", seed=seed,
                                     boundary=boundary)


@pytest.mark.parametrize("name,grid_shape,iterations,seed,boundary", CASES,
                         ids=[f"{c[0]}-{c[4]}" for c in CASES])
@pytest.mark.parametrize("devices", [1, 2, 4])
class TestShardedEquivalence:
    def test_bit_identical_to_single_device(self, session, name, grid_shape,
                                            iterations, seed, boundary,
                                            devices):
        pattern, grid = workload(name, grid_shape, seed, boundary)
        compiled = compile_stencil(pattern, grid_shape, boundary=boundary)
        single = session.run(compiled, grid, iterations).result
        sharded = ShardedExecutor(devices).execute(compiled, grid, iterations)
        assert np.array_equal(single.output, sharded.output)

    def test_matches_golden_fixture(self, name, grid_shape, iterations, seed,
                                    boundary, devices):
        fixture = np.load(fixture_path(name, boundary))
        pattern, grid = workload(name, grid_shape, seed, boundary)
        # the fixtures freeze the tcu-sim pipeline's numerics, so this
        # comparison pins the backend regardless of REPRO_BACKEND
        compiled = compile_stencil(pattern, grid_shape, boundary=boundary,
                                   backend="tcu-sim")
        sharded = ShardedExecutor(devices).execute(compiled, grid, iterations)
        np.testing.assert_allclose(sharded.output, fixture["pipeline"],
                                   rtol=0.0, atol=1e-9)


class TestShardedExecutor:
    def test_is_a_sweep_executor(self):
        assert isinstance(ShardedExecutor(2), SweepExecutor)

    def test_one_shard_degenerates_to_single_device(self, session, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        result = ShardedExecutor(1).execute(compiled, grid, 2)
        assert result.shard_grid == (1, 1)
        assert result.halo_exchange_bytes == 0.0
        assert result.halo_exchange_seconds == 0.0
        assert result.halo_traffic_fraction == 0.0
        single = session.run(compiled, grid, 2).result
        assert np.array_equal(result.output, single.output)

    def test_equal_shaped_shards_share_one_fingerprint(self, heat2d):
        cache = CompileCache()
        compiled = compile_stencil(heat2d, (66, 66))
        grid = make_grid((66, 66), seed=3)
        executor = ShardedExecutor(4, cache=cache)
        partition = executor.partition(compiled)
        shapes = {s.subgrid_shape for s in partition.shards}
        executor.execute(compiled, grid, 2)
        assert cache.stats.misses == len(shapes)
        assert cache.stats.misses < partition.n_shards or len(shapes) == 4

    def test_explicit_shard_grid(self, session, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        result = ShardedExecutor(4, shard_grid=(4, 1)).execute(
            compiled, grid, 2)
        assert result.shard_grid == (4, 1)
        assert np.array_equal(result.output,
                              session.run(compiled, grid, 2).output)

    def test_more_shards_than_devices_rejected(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        with pytest.raises(ValidationError):
            ShardedExecutor(2, shard_grid=(2, 2)).execute(compiled, grid, 2)

    def test_non_divisible_fused_iterations_rejected(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), temporal_fusion=2)
        grid = make_grid((64, 64), seed=3)
        with pytest.raises(ValidationError):
            ShardedExecutor(2).execute(compiled, grid, 3)

    def test_temporal_fusion_stays_bit_identical(self, session, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), temporal_fusion=2)
        grid = make_grid((64, 64), seed=3)
        single = session.run(compiled, grid, 4).result
        sharded = ShardedExecutor(2).execute(compiled, grid, 4)
        assert np.array_equal(single.output, sharded.output)

    def test_single_sweep_bills_no_halo_exchange(self, session, heat2d):
        """Nothing reads halos after the final sweep, so a one-sweep run
        must report zero exchange traffic and time."""
        compiled = compile_stencil(heat2d, (96, 96))
        grid = make_grid((96, 96), seed=3)
        result = ShardedExecutor(4).execute(compiled, grid, 1)
        assert result.halo_exchange_bytes == 0.0
        assert result.halo_exchange_seconds == 0.0
        assert np.array_equal(result.output,
                              session.run(compiled, grid, 1).output)

    def test_multi_device_accounting(self, heat2d):
        compiled = compile_stencil(heat2d, (96, 96))
        grid = make_grid((96, 96), seed=3)
        result = ShardedExecutor(4).execute(compiled, grid, 2)
        assert result.device_count == 4
        assert result.n_shards == 4
        assert len(result.shard_utilization) == 4
        assert result.halo_exchange_bytes > 0
        assert 0.0 < result.halo_traffic_fraction < 1.0
        assert 0.0 < result.load_balance <= 1.0
        assert result.points_updated == pytest.approx(2 * 94 * 94)
        assert "shard_compile" in result.overhead_seconds


#: Deep-halo matrix geometry: shapes sized so the 8x8 layout tiles divide
#: the interior (periodic wrap images stay tile-congruent) and every shard
#: owns the depth-3 ghost width (1 + 2*8 = 17 cells).
DEEP_SHAPES = {1: (258,), 2: (130, 130)}
DEEP_SHARDS = {1: {1: (1,), 2: (2,), 4: (4,)},
               2: {1: (1, 1), 2: (2, 1), 4: (2, 2)}}
DEEP_ITERS = 4

#: One cache for the whole matrix — window shapes repeat heavily across
#: depths and shard grids, so the 54 cases compile a handful of plans.
_DEEP_CACHE = CompileCache(capacity=256)


@lru_cache(maxsize=None)
def _deep_case(ndim, boundary):
    shape = DEEP_SHAPES[ndim]
    weights = [0.6] + [0.4 / (2 * ndim)] * (2 * ndim)
    pattern = StencilPattern.star(ndim, 1, weights=weights,
                                  name=f"deep-heat-{ndim}d")
    grid = make_grid(shape, kind="random", seed=11, boundary=boundary)
    compiled = compile_stencil(pattern, shape, boundary=boundary,
                               search=False, r1=8, r2=8)
    with StencilSession() as session:
        single = session.run(compiled, grid, DEEP_ITERS)
    return compiled, grid, single.output


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic", "reflect"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("ndim", [1, 2])
class TestDeepHaloEquivalence:
    """The communication-avoiding schedule must stay bit-identical to the
    single-device run across every boundary condition, shard grid and
    halo depth — redundant ghost compute included."""

    def test_bit_identical_across_depths(self, ndim, shards, depth, boundary):
        compiled, grid, expected = _deep_case(ndim, boundary)
        executor = ShardedExecutor(shards,
                                   shard_grid=DEEP_SHARDS[ndim][shards],
                                   cache=_DEEP_CACHE, halo_depth=depth)
        result = executor.execute(compiled, grid, DEEP_ITERS)
        if shards > 1:
            # the geometry is sized so the requested depth is feasible
            assert result.halo_depth == depth
            expected_exchanges = -(-DEEP_ITERS // depth) - 1
            assert result.halo_exchange_count == expected_exchanges
        assert np.array_equal(result.output, expected)


class TestDeepHaloAccounting:
    def _run(self, compiled, grid, **kwargs):
        return ShardedExecutor(4, cache=_DEEP_CACHE, **kwargs).execute(
            compiled, grid, DEEP_ITERS)

    def test_deeper_halos_exchange_less(self):
        compiled, grid, _ = _deep_case(2, "dirichlet")
        shallow = self._run(compiled, grid, halo_depth=1)
        deep = self._run(compiled, grid, halo_depth=3)
        assert shallow.halo_exchange_count == DEEP_ITERS - 1
        assert deep.halo_exchange_count < shallow.halo_exchange_count
        assert deep.halo_exchange_seconds < shallow.halo_exchange_seconds
        # fewer exchanges trade against redundant ghost compute
        assert shallow.redundant_points_updated == 0.0
        assert deep.redundant_points_updated > 0.0
        assert 0.0 < deep.redundant_compute_fraction < 1.0

    def test_overlap_hides_exchange_time(self):
        compiled, grid, expected = _deep_case(2, "dirichlet")
        hidden = self._run(compiled, grid, halo_depth=2, overlap=True)
        serial = self._run(compiled, grid, halo_depth=2, overlap=False)
        # overlap is a timing model, never a numerics change
        assert np.array_equal(hidden.output, serial.output)
        assert np.array_equal(hidden.output, expected)
        assert hidden.halo_exchange_seconds == serial.halo_exchange_seconds
        assert hidden.halo_exposed_seconds <= serial.halo_exposed_seconds
        assert hidden.elapsed_seconds <= serial.elapsed_seconds
        # without overlap every exchange second is exposed wall time
        assert serial.halo_exposed_seconds == pytest.approx(
            serial.halo_exchange_seconds)
        assert serial.halo_traffic_fraction == pytest.approx(
            serial.halo_exposed_seconds / serial.elapsed_seconds)

    def test_halo_bytes_fraction_separates_byte_view(self):
        compiled, grid, _ = _deep_case(2, "dirichlet")
        result = self._run(compiled, grid, halo_depth=2)
        assert 0.0 < result.halo_bytes_fraction < 1.0
        assert result.device_traffic_bytes > result.halo_exchange_bytes

    def test_infeasible_depth_clamps_to_geometry(self, session, heat2d):
        compiled = compile_stencil(heat2d, (34, 34), search=False, r1=8, r2=8)
        grid = make_grid((34, 34), seed=3)
        result = ShardedExecutor(4, shard_grid=(2, 2),
                                 halo_depth=5).execute(compiled, grid, 4)
        # 16-cell chunks hold at most radius + 1*step = 9 ghost cells
        assert result.halo_depth == 2
        assert np.array_equal(result.output,
                              session.run(compiled, grid, 4).output)


class TestRoundModels:
    def test_model_schedule_matches_executor_wall_clock(self):
        from repro.engine.sharded import window_plan_seconds
        from repro.stencils.partition import GridPartition

        compiled, grid, _ = _deep_case(2, "dirichlet")
        spec = MultiDeviceSpec(device=compiled.spec, device_count=4)
        for depth in (1, 2, 3):
            for overlap in (True, False):
                executor = ShardedExecutor(spec, shard_grid=(2, 2),
                                           cache=_DEEP_CACHE,
                                           halo_depth=depth, overlap=overlap)
                partition = executor.partition(compiled)
                seconds = window_plan_seconds(compiled, spec, partition,
                                              cache=_DEEP_CACHE)
                model = model_schedule(partition, spec,
                                       compiled.plan.dtype.itemsize,
                                       DEEP_ITERS,
                                       compiled.plan.estimate.t_total,
                                       overlap=overlap,
                                       window_seconds=seconds)
                result = executor.execute(compiled, grid, DEEP_ITERS)
                assert model.round_seconds == pytest.approx(
                    result.elapsed_seconds, rel=1e-9)
                assert model.exposed_seconds == pytest.approx(
                    result.halo_exposed_seconds, rel=1e-9, abs=1e-18)
                assert model.redundant_fraction * result.points_updated == \
                    pytest.approx(result.redundant_points_updated)

    def test_model_round_single_shard_is_pure_compute(self, heat2d):
        from repro.stencils.partition import GridPartition

        compiled = compile_stencil(heat2d, (66, 66), search=False,
                                   r1=8, r2=8)
        partition = GridPartition.build((66, 66), 1, (1, 1), align=(8, 8))
        model = model_round(partition, multi_a100(1), 2, 1e-6)
        assert model.per_sweep_seconds == 1e-6
        assert model.halo_seconds == 0.0
        assert model.halo_fraction == 0.0


class TestDeepHaloTradeoff:
    def test_points_cover_contiguous_depths(self):
        compiled, _, _ = _deep_case(2, "dirichlet")
        trade = deep_halo_tradeoff(compiled, 4, shard_grid=(2, 2),
                                   max_depth=3, cache=_DEEP_CACHE)
        assert [p.halo_depth for p in trade.points] == [1, 2, 3]
        assert trade.devices == 4
        assert trade.shard_grid == (2, 2)
        assert trade.predicted_depth in (1, 2, 3)
        rows = trade.as_rows()
        assert rows[0]["halo_depth"] == 1
        assert all(p.redundant_fraction == 0.0 for p in trade.points[:1])
        assert all(p.redundant_fraction > 0.0 for p in trade.points[1:])

    def test_max_depth_clamped_to_geometry(self, heat2d):
        compiled = compile_stencil(heat2d, (34, 34), search=False, r1=8, r2=8)
        trade = deep_halo_tradeoff(compiled, 4, shard_grid=(2, 2),
                                   max_depth=6, window_estimates=False)
        assert [p.halo_depth for p in trade.points] == [1, 2]

    def test_finite_schedule_predicts_measured_optimum(self):
        """The crossover assert the benchmark relies on: with finite-horizon
        window-exact pricing, the predicted depth IS the measured argmin."""
        compiled, grid, _ = _deep_case(2, "dirichlet")
        spec = MultiDeviceSpec(device=compiled.spec, device_count=4,
                               interconnect_bandwidth_gbs=600.0,
                               link_latency_seconds=2e-7)
        trade = deep_halo_tradeoff(compiled, spec, shard_grid=(2, 2),
                                   max_depth=3, overlap=False,
                                   cache=_DEEP_CACHE, iterations=DEEP_ITERS)
        measured = {}
        for point in trade.points:
            result = ShardedExecutor(spec, shard_grid=(2, 2),
                                     cache=_DEEP_CACHE,
                                     halo_depth=point.halo_depth,
                                     overlap=False).execute(
                compiled, grid, DEEP_ITERS)
            measured[point.halo_depth] = result.elapsed_seconds
            assert point.per_sweep_seconds * DEEP_ITERS == pytest.approx(
                result.elapsed_seconds, rel=1e-9)
        best = min(measured, key=measured.get)
        assert trade.predicted_depth == best


def solve_sharded(session, pattern, grid, iterations, *, devices, cache=None,
                  **options):
    """One sharded session solve; returns ``(compiled, ShardedRunResult)``."""
    solution = session.solve(Problem(pattern, grid, iterations,
                                     options=options),
                             mode="sharded", devices=devices, cache=cache)
    return solution.compiled, solution.result


class TestSolveSharded:
    def test_matches_direct_pipeline(self, session, heat2d):
        grid = make_grid((96, 96), seed=9)
        compiled, result = solve_sharded(session, heat2d, grid, 2, devices=2)
        assert np.array_equal(result.output,
                              session.run(compiled, grid, 2).output)
        assert result.device_count == 2

    def test_cache_shared_between_global_and_shard_plans(self, session,
                                                         heat2d):
        cache = CompileCache()
        grid = make_grid((96, 96), seed=9)
        solve_sharded(session, heat2d, grid, 2, devices=2, cache=cache)
        before = cache.stats.misses
        solve_sharded(session, heat2d, grid, 2, devices=2, cache=cache)
        assert cache.stats.misses == before  # fully warm second run

    def test_integer_devices_inherit_compiled_spec(self, session, heat2d):
        """devices=N must cluster the *compiled* device, not default A100s."""
        from repro.tcu.spec import A100_SPEC
        weak = A100_SPEC.with_overrides(sm_count=27, global_bandwidth_gbs=400.0)
        grid = make_grid((96, 96), seed=9)
        _, on_weak = solve_sharded(session, heat2d, grid, 2, devices=2,
                                   spec=weak)
        _, on_a100 = solve_sharded(session, heat2d, grid, 2, devices=2)
        assert on_weak.elapsed_seconds > on_a100.elapsed_seconds
        # different specs may pick different layouts, so only functional
        # closeness (not bit-equality) holds across devices
        assert np.max(np.abs(on_weak.output - on_a100.output)) < 5e-3

    def test_custom_interconnect(self, session, heat2d):
        slow = MultiDeviceSpec(device_count=2,
                               interconnect_bandwidth_gbs=10.0,
                               link_latency_seconds=1e-3)
        fast = multi_a100(2)
        grid = make_grid((96, 96), seed=9)
        _, on_slow = solve_sharded(session, heat2d, grid, 2, devices=slow)
        _, on_fast = solve_sharded(session, heat2d, grid, 2, devices=fast)
        assert on_slow.elapsed_seconds > on_fast.elapsed_seconds
        assert np.array_equal(on_slow.output, on_fast.output)


class TestScalingAnalysis:
    def test_report_shape_and_invariants(self, heat2d):
        grid = make_grid((96, 96), seed=5)
        report = sharded_scaling(heat2d, grid, 2, device_counts=(1, 2, 4))
        assert len(report.points) == 3
        assert report.single_device_seconds > 0
        one = report.points[0]
        assert one.devices == 1
        assert one.halo_traffic_fraction == 0.0
        for point in report.points:
            assert point.efficiency == pytest.approx(point.speedup / point.devices)
        rows = report.as_rows()
        assert rows[1]["devices"] == 2

    def test_envelope_fields_in_rows(self, heat2d):
        grid = make_grid((130, 130), seed=5)
        report = sharded_scaling(heat2d, grid, 4, device_counts=(1, 4),
                                 halo_depth=2, overlap=False,
                                 shard_grids=((1, 1), (2, 2)))
        row = report.as_rows()[1]
        for key in ("halo_depth", "overlap", "halo_exchange_count",
                    "halo_exchange_bytes", "halo_exposed_seconds",
                    "halo_bytes_fraction", "redundant_compute_fraction"):
            assert key in row
        assert row["halo_depth"] == 2
        assert row["overlap"] is False
        assert row["halo_exchange_count"] == 1
        assert row["redundant_compute_fraction"] > 0.0
        baseline = report.as_rows()[0]
        assert baseline["halo_exchange_count"] == 0
        assert baseline["halo_bytes_fraction"] == 0.0

    def test_per_shard_utilization_rows(self, heat2d):
        grid = make_grid((96, 96), seed=5)
        compiled = compile_stencil(heat2d, (96, 96))
        result = ShardedExecutor(4).execute(compiled, grid, 2)
        rows = per_shard_utilization(result)
        assert len(rows) == 4
        assert {"shard", "elapsed_seconds", "SM Utilization"} <= set(rows[0])
