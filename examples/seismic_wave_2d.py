"""High-order seismic wave propagation with SparStencil.

Geophysical imaging codes sweep high-order Laplacian stencils (order 8 and
beyond) over large grids for thousands of time steps.  These kernels are the
sweet spot of the paper's technique: wide star stencils leave lots of
clustered sparsity in the morphed kernel matrix, which the 2:4 conversion
turns into sparse-Tensor-Core throughput.

The script propagates an acoustic wavelet with the standard second-order
time / eighth-order space scheme, using SparStencil for the Laplacian term,
and prints the layout the automatic search selected.

Run with::

    python examples/seismic_wave_2d.py
"""

from __future__ import annotations

import numpy as np

from repro import StencilSession, compile_stencil
from repro.stencils.domains import acoustic_wave
from repro.stencils.grid import Grid

GRID_SIZE = 192
TIME_STEPS = 12
COURANT_SQ = 0.08      # (c * dt / dx)^2, kept small for stability


def ricker_wavelet(size: int) -> np.ndarray:
    """A Ricker-style source centred in the grid."""
    x = np.linspace(-3.0, 3.0, size)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    r2 = xx ** 2 + yy ** 2
    return (1.0 - r2) * np.exp(-r2 / 2.0)


def main() -> None:
    laplacian = acoustic_wave(2, 8, name="acoustic-2d-o8")
    print(f"Stencil: {laplacian}  (radius {laplacian.radius}, "
          f"{laplacian.points} taps in a {laplacian.diameter}x{laplacian.diameter} footprint)")

    compiled = compile_stencil(laplacian, (GRID_SIZE, GRID_SIZE))
    assert compiled.search is not None
    best = compiled.search.best
    print(f"Layout search picked (r1={best.r1}, r2={best.r2}) out of "
          f"{len(compiled.search.candidates)} candidates "
          f"(sparsity {best.estimate.sparsity:.2f}, "
          f"compute density {best.estimate.compute_density:.3f})")

    # Second-order-in-time wave equation: u_next = 2u - u_prev + c^2 L(u)
    u_prev = ricker_wavelet(GRID_SIZE)
    u_curr = u_prev.copy()
    radius = laplacian.radius
    interior = (slice(radius, -radius), slice(radius, -radius))

    total_device_seconds = 0.0
    with StencilSession() as session:
        for step in range(TIME_STEPS):
            lap_run = session.run(
                compiled, Grid(data=u_curr, dtype=np.float16), 1).result
            # The acoustic kernel *is* the discrete Laplacian, so the stencil
            # application gives L(u) directly on the interior region.
            laplacian_term = lap_run.output[interior]
            u_next = u_curr.copy()
            u_next[interior] = (2.0 * u_curr[interior] - u_prev[interior]
                                + COURANT_SQ * laplacian_term)
            u_prev, u_curr = u_curr, u_next
            total_device_seconds += lap_run.elapsed_seconds

    # The wavefront must expand outward: energy appears away from the centre.
    centre = GRID_SIZE // 2
    ring = abs(u_curr[centre, centre + GRID_SIZE // 4])
    print(f"\nAfter {TIME_STEPS} steps: |u| at the centre = "
          f"{abs(u_curr[centre, centre]):.4f}, on the ring = {ring:.4f}")
    print(f"Field stays bounded: max |u| = {np.abs(u_curr).max():.4f}")
    assert np.isfinite(u_curr).all()
    assert np.abs(u_curr).max() < 10.0

    print(f"Total modelled Laplacian time on the simulated A100: "
          f"{total_device_seconds * 1e6:.1f} us for {TIME_STEPS} sweeps")


if __name__ == "__main__":
    main()
