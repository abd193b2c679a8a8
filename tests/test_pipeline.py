"""Unit and integration tests for the end-to-end SparStencil pipeline."""

import numpy as np
import pytest

from repro.core.pipeline import compile_stencil
from repro.session import Problem
from repro.stencils.grid import make_grid
from repro.stencils.pattern import StencilPattern
from repro.stencils.reference import run_stencil_iterations
from repro.tcu.spec import A100_SPEC, DENSE_FRAGMENTS, DataType, SPARSE_FRAGMENTS
from repro.util.validation import ValidationError

#: fp16 device arithmetic against a float64 reference
FP16_TOL = 5e-3


class TestCompileStencil:
    def test_auto_engine_picks_sparse_for_fp16(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        assert compiled.engine == "sparse_mma"
        assert compiled.plan.fragment.sparse

    def test_auto_engine_picks_dense_for_fp64(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), dtype=DataType.FP64)
        assert compiled.engine == "dense_mma"
        assert not compiled.plan.fragment.sparse

    def test_search_records_result(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), search=True)
        assert compiled.search is not None
        assert compiled.config == compiled.search.best_config

    def test_fixed_layout(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), search=False, r1=4, r2=2)
        assert compiled.search is None
        assert compiled.config.r1 == 4 and compiled.config.r2 == 2

    def test_fixed_layout_requires_r1(self, heat2d):
        with pytest.raises(ValidationError):
            compile_stencil(heat2d, (64, 64), search=False)

    def test_overhead_stages_recorded(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        assert {"transformation", "metadata", "lookup_table"} <= \
            set(compiled.overhead_seconds)

    def test_mismatched_fragment_rejected(self, heat2d):
        with pytest.raises(ValidationError):
            compile_stencil(heat2d, (64, 64), engine="sparse_mma",
                            fragment=DENSE_FRAGMENTS[0])

    def test_temporal_fusion_enlarges_kernel(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), temporal_fusion=3)
        assert compiled.pattern.diameter == 7
        assert compiled.original_pattern is heat2d

    def test_grid_too_small_for_fusion_rejected(self, heat2d):
        with pytest.raises(ValidationError):
            compile_stencil(heat2d, (6, 6), temporal_fusion=3)


class TestRunStencil:
    @pytest.mark.parametrize("name,pattern_args,shape", [
        ("heat-1d", (1, 1), (200,)),
        ("heat-2d", (2, 1), (48, 52)),
        ("box-2d49p", (2, 3), (40, 44)),
        ("heat-3d", (3, 1), (18, 20, 22)),
    ])
    def test_matches_reference(self, session, name, pattern_args, shape):
        pattern = StencilPattern.star(*pattern_args) if "heat" in name \
            else StencilPattern.box(*pattern_args)
        grid = make_grid(shape, kind="random", seed=11)
        compiled = compile_stencil(pattern, shape)
        result = session.run(compiled, grid, iterations=3).result
        reference = run_stencil_iterations(pattern, grid, 3)
        assert np.max(np.abs(result.output - reference)) < FP16_TOL

    def test_boundary_cells_untouched(self, session, heat2d):
        grid = make_grid((32, 32), kind="random", seed=3)
        compiled = compile_stencil(heat2d, (32, 32))
        result = session.run(compiled, grid, iterations=2).result
        assert np.array_equal(result.output[0, :], grid.data[0, :])
        assert np.array_equal(result.output[:, -1], grid.data[:, -1])

    def test_temporal_fusion_matches_reference(self, session, heat2d):
        grid = make_grid((40, 40), kind="random", seed=5)
        compiled = compile_stencil(heat2d, (40, 40), temporal_fusion=3)
        result = session.run(compiled, grid, iterations=3).result
        reference = run_stencil_iterations(heat2d, grid, 3)
        inner = (slice(3, -3), slice(3, -3))
        assert np.max(np.abs(result.output[inner] - reference[inner])) < FP16_TOL

    def test_fusion_leftover_iterations_supported(self, session, heat2d):
        """4 iterations at 3x fusion = one fused sweep + one plain sweep."""
        grid = make_grid((40, 40), seed=5)
        compiled = compile_stencil(heat2d, (40, 40), temporal_fusion=3)
        result = session.run(compiled, grid, iterations=4).result
        assert result.sweeps == 2
        assert result.leftover_sweeps == 1
        reference = run_stencil_iterations(heat2d, grid, 4)
        inner = (slice(4, -4), slice(4, -4))
        assert np.max(np.abs(result.output[inner] - reference[inner])) < FP16_TOL

    def test_grid_shape_mismatch_rejected(self, session, heat2d):
        compiled = compile_stencil(heat2d, (32, 32))
        with pytest.raises(ValidationError):
            session.run(compiled, make_grid((40, 40)), iterations=1)

    def test_metrics_populated(self, session, heat2d):
        grid = make_grid((48, 48), seed=3)
        compiled = compile_stencil(heat2d, (48, 48))
        result = session.run(compiled, grid, iterations=2).result
        assert result.elapsed_seconds > 0.0
        assert result.gstencil_per_second > 0.0
        assert result.gflops_per_second > 0.0
        assert result.utilization is not None
        assert result.sweeps == 2

    def test_time_scales_with_iterations(self, session, heat2d):
        grid = make_grid((48, 48), seed=3)
        compiled = compile_stencil(heat2d, (48, 48))
        two = session.run(compiled, grid, iterations=2).result
        four = session.run(compiled, grid, iterations=4).result
        assert four.elapsed_seconds == pytest.approx(2 * two.elapsed_seconds, rel=1e-6)

    def test_dense_fp64_path_matches_reference(self, session, box2d9p):
        grid = make_grid((40, 40), seed=9)
        compiled = compile_stencil(box2d9p, (40, 40), dtype=DataType.FP64)
        result = session.run(compiled, grid, iterations=2).result
        reference = run_stencil_iterations(box2d9p, grid, 2)
        assert np.max(np.abs(result.output - reference)) < 1e-9

    def test_fixed_small_layout_still_correct(self, session, box2d49p):
        grid = make_grid((40, 44), seed=13)
        compiled = compile_stencil(box2d49p, (40, 44), search=False, r1=3, r2=2)
        result = session.run(compiled, grid, iterations=2).result
        reference = run_stencil_iterations(box2d49p, grid, 2)
        assert np.max(np.abs(result.output - reference)) < FP16_TOL


class TestConvenienceAPIs:
    def test_single_mode_solve(self, session, heat2d):
        grid = make_grid((40, 40), seed=2)
        solution = session.solve(Problem(heat2d, grid, 2), mode="single")
        assert solution.compiled.engine == "sparse_mma"
        assert solution.result.iterations == 2
