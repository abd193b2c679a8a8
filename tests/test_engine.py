"""Execution-engine layer tests: step API, single-device executor, leftover
sweeps and cross-sweep utilization aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codegen import DENSE_KERNEL_REGISTERS, SPARSE_KERNEL_REGISTERS
from repro.core.pipeline import compile_stencil
from repro.engine import (
    SingleDeviceExecutor,
    SweepExecutor,
    gather_step,
    leftover_plan,
    mma_step,
    prepare_sweep,
    run_sweep,
)
from repro.service import CompileCache
from repro.stencils.grid import make_grid
from repro.stencils.reference import run_stencil_iterations
from repro.tcu.counters import UtilizationReport, combine_utilization
from repro.tcu.spec import DataType
from repro.util.validation import ValidationError

FP16_TOL = 5e-3


class TestStepAPI:
    def test_run_sweep_equals_composed_steps(self, heat2d):
        # gather/mma/assemble ARE the tcu-sim data path, so the composed
        # comparison pins that backend regardless of REPRO_BACKEND
        compiled = compile_stencil(heat2d, (48, 48), backend="tcu-sim")
        grid = make_grid((48, 48), seed=1)
        context = prepare_sweep(compiled)

        by_steps = grid.data.copy()
        b_operand = gather_step(context, by_steps)
        launch = mma_step(context, b_operand)
        from repro.engine import assemble_step
        assemble_step(context, launch, by_steps)

        composed = grid.data.copy()
        run_sweep(context, composed)
        assert np.array_equal(by_steps, composed)

    def test_mma_step_uses_plan_registers(self, heat2d):
        sparse = compile_stencil(heat2d, (48, 48))
        dense = compile_stencil(heat2d, (48, 48), dtype=DataType.FP64)
        assert sparse.plan.registers_per_thread == SPARSE_KERNEL_REGISTERS
        assert dense.plan.registers_per_thread == DENSE_KERNEL_REGISTERS

    def test_executor_protocol(self):
        assert isinstance(SingleDeviceExecutor(), SweepExecutor)


class TestSingleDeviceExecutor:
    def test_matches_run_stencil_wrapper(self, session, heat2d):
        """The session's precompiled-plan entry runs this engine."""
        compiled = compile_stencil(heat2d, (48, 48))
        grid = make_grid((48, 48), seed=4)
        via_engine = SingleDeviceExecutor().execute(compiled, grid, 3)
        via_wrapper = session.run(compiled, grid, 3).result
        assert np.array_equal(via_engine.output, via_wrapper.output)
        assert via_engine.elapsed_seconds == via_wrapper.elapsed_seconds

    def test_points_updated_reported(self, session, heat2d):
        compiled = compile_stencil(heat2d, (48, 48))
        grid = make_grid((48, 48), seed=4)
        result = session.run(compiled, grid, 3).result
        assert result.points_updated == pytest.approx(3 * 46 * 46)

    def test_utilization_aggregates_identical_sweeps_exactly(self, session,
                                                            heat2d):
        """Homogeneous sweeps must report the per-sweep counters unchanged."""
        compiled = compile_stencil(heat2d, (48, 48))
        grid = make_grid((48, 48), seed=4)
        one = session.run(compiled, grid, 1).result
        many = session.run(compiled, grid, 4).result
        assert many.utilization == one.utilization


class TestLeftoverSweeps:
    def test_leftover_matches_mixed_reference(self, session, heat2d):
        """sweeps fused + leftover plain must equal fused-then-plain reference."""
        grid = make_grid((44, 44), seed=8)
        compiled = compile_stencil(heat2d, (44, 44), temporal_fusion=2)
        result = session.run(compiled, grid, iterations=5).result
        assert result.sweeps == 3           # 2 fused + 1 plain
        assert result.leftover_sweeps == 1
        reference = run_stencil_iterations(heat2d, grid, 5)
        inner = tuple(slice(4, -4) for _ in range(2))
        assert np.max(np.abs(result.output[inner] - reference[inner])) < FP16_TOL

    def test_iterations_below_fusion_run_plain(self, session, heat2d):
        grid = make_grid((44, 44), seed=8)
        compiled = compile_stencil(heat2d, (44, 44), temporal_fusion=3)
        result = session.run(compiled, grid, iterations=2).result
        assert result.sweeps == 2
        assert result.leftover_sweeps == 2
        reference = run_stencil_iterations(heat2d, grid, 2)
        assert np.max(np.abs(result.output - reference)) < FP16_TOL

    def test_points_updated_counts_both_phases(self, session, heat2d):
        grid = make_grid((44, 44), seed=8)
        compiled = compile_stencil(heat2d, (44, 44), temporal_fusion=2)
        result = session.run(compiled, grid, iterations=3).result
        fused_points = 2 * (44 - 2 * 2) ** 2   # one fused sweep, radius 2
        plain_points = 1 * (44 - 2 * 1) ** 2   # one plain sweep, radius 1
        assert result.points_updated == pytest.approx(fused_points + plain_points)

    def test_leftover_plan_cached(self, session, heat2d):
        grid = make_grid((44, 44), seed=8)
        cache = CompileCache()
        compiled = compile_stencil(heat2d, (44, 44), temporal_fusion=2)
        session.run(compiled, grid, iterations=3, cache=cache)
        assert cache.stats.misses == 1      # leftover plan compiled once
        session.run(compiled, grid, iterations=3, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_leftover_plan_requires_fusion(self, heat2d):
        compiled = compile_stencil(heat2d, (44, 44))
        with pytest.raises(ValidationError):
            leftover_plan(compiled)

    def test_leftover_plan_memoised_without_cache(self, heat2d):
        compiled = compile_stencil(heat2d, (44, 44), temporal_fusion=2)
        first = leftover_plan(compiled)
        assert leftover_plan(compiled) is first


class TestLeftoverEdgeCases:
    """iterations < temporal_fusion and iterations == 1: every sweep is a
    leftover sweep, executed entirely with the unfused companion plan."""

    def test_single_iteration_under_fusion_runs_one_plain_sweep(self, session,
                                                                heat2d):
        grid = make_grid((44, 44), seed=8)
        compiled = compile_stencil(heat2d, (44, 44), temporal_fusion=2)
        result = session.run(compiled, grid, iterations=1).result
        assert result.sweeps == 1
        assert result.leftover_sweeps == 1
        reference = run_stencil_iterations(heat2d, grid, 1)
        assert np.max(np.abs(result.output - reference)) < FP16_TOL
        # one plain sweep of the unfused (radius-1) pattern
        assert result.points_updated == pytest.approx((44 - 2) ** 2)

    @pytest.mark.parametrize("fusion,iterations", [(3, 1), (3, 2), (4, 3)])
    def test_all_iterations_below_fusion_are_plain(self, session, heat2d,
                                                   fusion, iterations):
        grid = make_grid((60, 60), seed=9)
        compiled = compile_stencil(heat2d, (60, 60), temporal_fusion=fusion)
        result = session.run(compiled, grid, iterations=iterations).result
        assert result.sweeps == iterations
        assert result.leftover_sweeps == iterations
        reference = run_stencil_iterations(heat2d, grid, iterations)
        assert np.max(np.abs(result.output - reference)) < FP16_TOL

    def test_leftover_plan_shared_across_fusion_factors(self, heat2d):
        """tf=2 and tf=3 plans share one unfused companion fingerprint, so a
        shared cache compiles the leftover plan exactly once."""
        cache = CompileCache()
        two = compile_stencil(heat2d, (60, 60), temporal_fusion=2)
        three = compile_stencil(heat2d, (60, 60), temporal_fusion=3)
        first = leftover_plan(two, cache)
        second = leftover_plan(three, cache)
        assert first is second
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert first.temporal_fusion == 1
        assert first.pattern.radius == heat2d.radius


class TestCombineUtilization:
    def _report(self, value: float) -> UtilizationReport:
        return UtilizationReport(
            sm_utilization=value, occupancy=value, l1_throughput=value,
            l2_throughput=value, memory_throughput=value, dram_throughput=value)

    def test_identical_reports_pass_through(self):
        report = self._report(33.3333)
        assert combine_utilization([report, report, report]) is report

    def test_weighted_mean(self):
        low, high = self._report(10.0), self._report(30.0)
        combined = combine_utilization([low, high], weights=[1.0, 3.0])
        assert combined.sm_utilization == pytest.approx(25.0)

    def test_zero_weights_fall_back_to_equal(self):
        low, high = self._report(10.0), self._report(30.0)
        combined = combine_utilization([low, high], weights=[0.0, 0.0])
        assert combined.occupancy == pytest.approx(20.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            combine_utilization([])
