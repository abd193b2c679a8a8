"""Property-based end-to-end test: the compiled SparStencil kernel matches the
golden reference for random workloads and layouts."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import compile_stencil
from repro.session import StencilSession
from repro.stencils.grid import Grid
from repro.stencils.pattern import StencilPattern
from repro.stencils.reference import run_stencil_iterations

SETTINGS = dict(max_examples=12, deadline=None)


class TestPipelineProperty:
    @given(radius=st.integers(min_value=1, max_value=2),
           kind=st.sampled_from(["star", "box"]),
           rows=st.integers(min_value=20, max_value=40),
           cols=st.integers(min_value=20, max_value=40),
           iterations=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_2d_pipeline_matches_reference(self, radius, kind, rows, cols,
                                           iterations, seed):
        pattern = getattr(StencilPattern, kind)(2, radius)
        data = np.random.default_rng(seed).random((rows, cols))
        grid = Grid(data=data, dtype=np.float16)
        compiled = compile_stencil(pattern, (rows, cols))
        with StencilSession() as session:
            result = session.run(compiled, grid, iterations).result
        reference = run_stencil_iterations(pattern, grid, iterations)
        assert np.max(np.abs(result.output - reference)) < 5e-3

    @given(r1=st.integers(min_value=1, max_value=12),
           r2=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_fixed_layouts_all_correct(self, r1, r2, seed):
        pattern = StencilPattern.box(2, 1)
        data = np.random.default_rng(seed).random((36, 36))
        grid = Grid(data=data, dtype=np.float16)
        compiled = compile_stencil(pattern, (36, 36), search=False, r1=r1, r2=r2)
        with StencilSession() as session:
            result = session.run(compiled, grid, 2).result
        reference = run_stencil_iterations(pattern, grid, 2)
        assert np.max(np.abs(result.output - reference)) < 5e-3
