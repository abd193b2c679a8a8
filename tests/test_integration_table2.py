"""Integration tests: every Table-2 benchmark kernel runs end-to-end through
the SparStencil pipeline (scaled simulation grids) and matches the reference.
"""

import numpy as np
import pytest

from repro.core.pipeline import compile_stencil
from repro.stencils.catalog import table2_benchmarks
from repro.stencils.grid import make_grid
from repro.stencils.reference import run_stencil_iterations
from repro.tcu.spec import DataType

#: Small grids keep the functional simulation fast while exercising every
#: kernel shape of Table 2.
TEST_GRIDS = {
    1: (512,),
    2: (64, 64),
    3: (24, 24, 24),
}

FP16_TOL = 5e-3


@pytest.mark.parametrize("config", table2_benchmarks(), ids=lambda c: c.name)
class TestTable2EndToEnd:
    def test_fp16_sparse_pipeline_matches_reference(self, session, config):
        shape = TEST_GRIDS[config.pattern.ndim]
        grid = make_grid(shape, kind="random", seed=17)
        compiled = compile_stencil(config.pattern, shape,
                                   block_hint=config.block)
        result = session.run(compiled, grid, iterations=2).result
        reference = run_stencil_iterations(config.pattern, grid, 2)
        # fp16 arithmetic: tolerance scales with the output magnitude (the
        # high-order Laplacian kernels have weights up to ~5 and outputs >> 1)
        tolerance = FP16_TOL * max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(result.output - reference)) < tolerance
        assert compiled.engine == "sparse_mma"

    def test_layout_search_produces_24_compatible_plan(self, config):
        shape = TEST_GRIDS[config.pattern.ndim]
        compiled = compile_stencil(config.pattern, shape)
        plan = compiled.plan
        assert plan.conversion is not None
        assert plan.conversion.n_total % 4 == 0
        assert plan.estimate.n_mma > 0

    def test_fp64_dense_fallback_matches_reference(self, session, config):
        shape = TEST_GRIDS[config.pattern.ndim]
        grid = make_grid(shape, kind="random", seed=17)
        compiled = compile_stencil(config.pattern, shape, dtype=DataType.FP64)
        result = session.run(compiled, grid, iterations=1).result
        reference = run_stencil_iterations(config.pattern, grid, 1)
        assert np.max(np.abs(result.output - reference)) < 1e-9
        assert compiled.engine == "dense_mma"
