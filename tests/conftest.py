"""Shared fixtures for the SparStencil reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.session import StencilSession
from repro.stencils.grid import Grid, make_grid
from repro.stencils.pattern import StencilPattern


def pytest_configure(config: pytest.Config) -> None:
    # Tier-1 CI runs `pytest -m "not slow"`; the heavier regression/property
    # layers opt in to the `slow` marker and run in the full (nightly) tier.
    config.addinivalue_line(
        "markers",
        "slow: heavier golden-regression / property tests "
        "(deselect with -m \"not slow\")",
    )


@pytest.fixture
def session():
    """A fresh single-device :class:`StencilSession`, closed afterwards."""
    with StencilSession() as session:
        yield session


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def heat2d() -> StencilPattern:
    return StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")


@pytest.fixture
def box2d9p() -> StencilPattern:
    return StencilPattern.box(2, 1, name="box-2d9p")


@pytest.fixture
def box2d49p() -> StencilPattern:
    return StencilPattern.box(2, 3, name="box-2d49p")


@pytest.fixture
def heat1d() -> StencilPattern:
    return StencilPattern.star(1, 1, weights=[0.5, 0.25, 0.25], name="heat-1d")


@pytest.fixture
def heat3d() -> StencilPattern:
    return StencilPattern.star(3, 1, weights=[0.4] + [0.1] * 6, name="heat-3d")


@pytest.fixture
def small_grid_2d() -> Grid:
    return make_grid((40, 44), kind="random", seed=7)


@pytest.fixture
def small_grid_1d() -> Grid:
    return make_grid((256,), kind="random", seed=7)


@pytest.fixture
def small_grid_3d() -> Grid:
    return make_grid((16, 18, 20), kind="random", seed=7)


def make_24_sparse(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Build a random matrix satisfying the 2:4 constraint (k multiple of 4)."""
    assert k % 4 == 0
    matrix = rng.random((m, k))
    grouped = matrix.reshape(m, k // 4, 4)
    for i in range(m):
        for g in range(k // 4):
            drop = rng.choice(4, 2, replace=False)
            grouped[i, g, drop] = 0.0
    return grouped.reshape(m, k)
