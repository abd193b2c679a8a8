"""Execution-engine core: the sweep step API and the executor protocol.

The compile side of the pipeline (:mod:`repro.core.pipeline`) produces a
:class:`~repro.core.pipeline.CompiledStencil`; *executing* it is the
engine layer's job.  One sweep decomposes into three steps, mirroring the
generated kernel's stages:

1. :func:`gather_step` — build the MMA's ``B`` operand from the current
   grid.  For a sparse plan: round the grid once to device precision into
   the LUT-padded buffer and build the float32 ``B'`` from it through the
   lookup tables (one strided view), plus one zero row.  For a dense plan:
   ``B'`` through the tables, in float64;
2. :func:`mma_step` — the (sparse or dense) MMA on the simulated Tensor
   Cores.  A sparse plan gathers, chunk by chunk of output rows, the ``B'``
   rows the compressed ``A''`` values multiply through the plan's row map —
   the PIT permutation, 4-padding and 2:4 index gather composed into one
   ``(m, k/2)`` integer map — and contracts them in float32 through the
   standalone sparse MMA's own contraction
   (:func:`~repro.tcu.sparse_mma.contract_rows`); a dense plan runs a full
   :class:`~repro.tcu.executor.KernelLaunch`.  Both price the launch with
   :func:`~repro.tcu.executor.price_launch`;
3. :func:`assemble_step` — reassemble ``D`` into the grid interior (the
   halo ring is the *executor's* responsibility, per the plan's boundary
   condition).

The sparse path is bit-identical to the plain chain
``gather_b_matrix`` -> ``apply_to_b`` -> ``sparse_mma`` -> ``assemble_output``
(every element is still ``f32(dtype(x))`` and the contraction sees the same
float32 array); ``tests/test_tcu_sweep.py`` pins that.  Its per-plan memo —
compressed values, row map, strided LUT view — is built on first use,
published once under a lock (shard sweeps share plans on a thread pool) and
never pickled with the plan.

:func:`prepare_sweep` precomputes everything the steps share for one run;
executors (:class:`SweepExecutor` implementations) own the loop around the
steps — how many sweeps, on how many devices, with what halo movement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.codegen import KernelPlan, get_backend
from repro.core.lookup_table import gather_b_matrix, patch_view
from repro.core.morphing import assemble_output
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.stencils.grid import Grid
from repro.stencils.reference import stencil_points_updated
from repro.tcu.counters import combine_utilization
from repro.tcu.executor import KernelLaunch, LaunchResult, execute_launch, \
    price_launch
from repro.tcu.sparse_mma import compressed_rows, contract_rows, \
    sparse_fragment_ops
from repro.tcu.sparsity24 import compress_24
from repro.tcu.spec import GPUSpec
from repro.util.validation import require

__all__ = [
    "SweepContext",
    "SweepExecutor",
    "prepare_sweep",
    "gather_step",
    "mma_step",
    "assemble_step",
    "run_sweep",
    "summarize_launches",
    "original_points",
    "throughput_metrics",
]


@runtime_checkable
class SweepExecutor(Protocol):
    """Anything that can run a compiled stencil for a number of iterations.

    Implementations must preserve the functional contract of the original
    monolithic loop: interior cells advance by one (possibly fused) time step
    per sweep, halo cells follow the compiled plan's boundary condition
    (held fixed under Dirichlet, refreshed from the interior under
    ``periodic`` / ``reflect`` — see :mod:`repro.stencils.boundary`), and
    the returned :class:`~repro.core.pipeline.StencilRunResult` carries the
    modelled timing and utilization of the whole run.
    """

    def execute(self, compiled: CompiledStencil, grid: Grid,
                iterations: int) -> StencilRunResult:
        ...


@dataclass(frozen=True)
class SweepContext:
    """Precomputed per-plan state shared by every sweep of a run.

    ``sweep`` is the backend-specific sweep callable, bound once by
    :func:`prepare_sweep` from the plan's registered backend
    (:func:`repro.core.codegen.get_backend`); :func:`run_sweep` dispatches
    through it.
    """

    compiled: CompiledStencil
    spec: GPUSpec
    interior: Tuple[slice, ...]
    launch_name: str
    sweep: Callable[[np.ndarray], LaunchResult] = field(
        default=None, compare=False, repr=False)

    @property
    def plan(self):
        return self.compiled.plan

    @property
    def radius(self) -> int:
        return self.compiled.pattern.radius


def prepare_sweep(compiled: CompiledStencil,
                  spec: Optional[GPUSpec] = None) -> SweepContext:
    """Build the :class:`SweepContext` for one compiled plan.

    ``spec`` overrides the device the sweeps are costed on (the sharded
    executor runs each shard's plan against one device of its cluster);
    it defaults to the spec the stencil was compiled for.  The plan's
    backend is resolved here — once per run, not per sweep — and its sweep
    closure attached to the context.
    """
    radius = compiled.pattern.radius
    interior = tuple(slice(radius, s - radius) for s in compiled.grid_shape)
    context = SweepContext(
        compiled=compiled,
        spec=spec if spec is not None else compiled.spec,
        interior=interior,
        launch_name=f"sparstencil/{compiled.pattern.name}",
    )
    backend = get_backend(compiled.backend)
    # frozen dataclass: the sweep closure needs the context it is attached to
    object.__setattr__(context, "sweep", backend.make_sweep(context))
    return context


@dataclass(frozen=True)
class _SparseSweepMemo:
    """Per-plan state of the sparse tcu-sim sweep, built once on first use.

    ``values`` is the compressed ``A''`` in float32; ``row_map[r, s]`` the
    ``B'`` row slot ``(r, s)`` reads, where row ``k'`` is the zero row the
    sweep appends (padding and inserted zero columns).  ``patches`` is
    :func:`~repro.core.lookup_table.patch_view` of the plan's LUT.
    """

    values: np.ndarray
    row_map: np.ndarray
    patches: Tuple[Tuple[int, ...], Tuple[int, ...]]
    fragment_ops: int


_SPARSE_MEMO_ATTR = "_sparse_sweep_memo"
_SPARSE_MEMO_LOCK = threading.Lock()


def _build_sparse_memo(plan: KernelPlan) -> _SparseSweepMemo:
    lut = plan.lut
    k_prime = lut.k_prime
    # compressed exactly as sparse_mma compresses the operand it is handed
    compressed = compress_24(np.asarray(plan.a_operand,
                                        dtype=plan.dtype.numpy_dtype))
    scatter = plan.conversion.scatter_rows
    require(scatter.shape == (k_prime,)
            and int(scatter.max(initial=-1)) < compressed.k,
            f"A'' of {plan.pattern.name} does not line up with its "
            f"{k_prime}-row B'")
    # padded K column -> B' row; unmapped columns read the zero row k'
    row_of_column = np.full(compressed.k, k_prime, dtype=np.intp)
    row_of_column[scatter] = np.arange(k_prime)
    return _SparseSweepMemo(
        values=np.asarray(compressed.values, dtype=plan.dtype.numpy_dtype)
        .astype(np.float32),
        row_map=compressed_rows(compressed, row_of_column),
        patches=patch_view(lut, plan.config.patch_shape(plan.pattern.diameter),
                           plan.config.r),
        fragment_ops=sparse_fragment_ops(compressed.m, compressed.k,
                                         lut.n_prime, plan.fragment),
    )


def _sparse_memo(plan: KernelPlan) -> _SparseSweepMemo:
    """The plan's sweep memo, built and published once across threads."""
    memo = getattr(plan, _SPARSE_MEMO_ATTR, None)
    if memo is None:
        with _SPARSE_MEMO_LOCK:
            memo = getattr(plan, _SPARSE_MEMO_ATTR, None)
            if memo is None:
                memo = _build_sparse_memo(plan)
                # frozen dataclass: attach the memo without touching fields
                object.__setattr__(plan, _SPARSE_MEMO_ATTR, memo)
    return memo


def _launch(context: SweepContext, b: np.ndarray) -> KernelLaunch:
    plan = context.plan
    return KernelLaunch(
        name=context.launch_name,
        engine=plan.engine,
        a=plan.a_operand,
        b=b,
        fragment=plan.fragment,
        dtype=plan.dtype,
        traffic=plan.estimate.traffic,
        threads_per_block=plan.threads_per_block,
        blocks=plan.blocks,
        registers_per_thread=plan.registers_per_thread,
    )


def gather_step(context: SweepContext, current: np.ndarray) -> np.ndarray:
    """Stage 1: build the MMA's ``B`` operand from the grid.

    Sparse plans: round the grid once to device precision (``f32(dtype(x))``,
    exactly what the MMA reads) into the LUT-padded buffer and build the
    float32 ``(k' + 1, n')`` ``B'`` from it through the LUT's strided view,
    its last row zero.  Dense plans: ``B'`` through the lookup tables, in
    float64.
    """
    plan = context.plan
    if plan.engine != "sparse_mma":
        return gather_b_matrix(plan.lut, current)
    memo = _sparse_memo(plan)
    lut = plan.lut
    require(tuple(current.shape) == lut.grid_shape,
            f"grid shape {tuple(current.shape)} does not match the lookup "
            f"table's {lut.grid_shape}")
    padded = np.zeros(lut.padded_grid_shape, dtype=np.float32)
    padded[tuple(slice(0, s) for s in current.shape)] = np.asarray(
        current, dtype=np.float64).astype(plan.dtype.numpy_dtype)
    b_prime = np.empty((lut.k_prime + 1, lut.n_prime), dtype=np.float32)
    shape, strides = memo.patches
    np.copyto(b_prime[:-1].reshape(shape),
              as_strided(padded, shape,
                         tuple(s * padded.itemsize for s in strides),
                         writeable=False))
    b_prime[-1] = 0.0
    return b_prime


def mma_step(context: SweepContext, b_operand: np.ndarray) -> LaunchResult:
    """Stage 2: run the fragment MMA on the simulated device.

    Sparse plans gather, per chunk of output rows, the ``b_operand`` rows
    (from :func:`gather_step`) each compressed ``A''`` value multiplies
    through the plan's row map and contract them with the memo's values
    through :func:`~repro.tcu.sparse_mma.contract_rows` — the standalone
    sparse MMA's own contraction.  Dense plans run a full
    :class:`~repro.tcu.executor.KernelLaunch`.
    """
    plan = context.plan
    launch = _launch(context, b_operand)
    if plan.engine != "sparse_mma":
        return execute_launch(launch, context.spec)
    memo = _sparse_memo(plan)
    expected = (plan.lut.k_prime + 1, plan.n_prime)
    require(b_operand.shape == expected and b_operand.dtype == np.float32,
            f"sparse mma_step expects the float32 {expected} operand "
            f"gather_step builds, got {b_operand.dtype} {b_operand.shape}")
    d = contract_rows(memo.values,
                      lambda start, stop: b_operand[memo.row_map[start:stop]],
                      plan.n_prime)
    return price_launch(launch, memo.fragment_ops, context.spec,
                        output=d.astype(np.float64))


def assemble_step(context: SweepContext, result: LaunchResult,
                  current: np.ndarray) -> None:
    """Stage 3: reassemble ``D`` into the grid interior, in place."""
    require(result.output is not None,
            f"launch {result.name!r} produced no functional output")
    output_grid = assemble_output(result.output, context.compiled.geometry())
    current[context.interior] = output_grid


def run_sweep(context: SweepContext, current: np.ndarray) -> LaunchResult:
    """One full sweep, updating ``current`` in place.

    Dispatches to the backend closure bound at :func:`prepare_sweep` time.
    Under the default ``"tcu-sim"`` backend this is exactly the
    ``gather B' -> MMA -> assemble`` sequence of :func:`gather_step` /
    :func:`mma_step` / :func:`assemble_step`; other backends substitute
    their own host implementation while preserving the interior-update
    contract.
    """
    return context.sweep(current)


@dataclass(frozen=True)
class _LaunchTotals:
    elapsed_seconds: float
    compute_seconds: float
    memory_seconds: float
    utilization: object


def summarize_launches(results: Sequence[LaunchResult]) -> _LaunchTotals:
    """Sum modelled times and aggregate utilization across launches.

    Utilization is weighted by each launch's elapsed time, so a run mixing
    fused and leftover sweeps (or differently sized shards) reports the
    counters an NCU capture over the whole run would.
    """
    results = list(results)
    require(len(results) > 0, "summarize_launches needs at least one launch")
    return _LaunchTotals(
        elapsed_seconds=sum(r.elapsed_seconds for r in results),
        compute_seconds=sum(r.compute_seconds for r in results),
        memory_seconds=sum(r.memory_seconds for r in results),
        utilization=combine_utilization(
            [r.utilization for r in results],
            [r.elapsed_seconds for r in results]),
    )


def original_points(compiled: CompiledStencil, fused_sweeps: int,
                    leftover_sweeps: int) -> float:
    """Original-resolution stencil updates for a mixed fused/plain run."""
    points = 0.0
    if fused_sweeps:
        points += (stencil_points_updated(compiled.pattern,
                                          compiled.grid_shape, fused_sweeps)
                   * compiled.temporal_fusion)
    if leftover_sweeps:
        points += stencil_points_updated(compiled.original_pattern,
                                         compiled.grid_shape, leftover_sweeps)
    return float(points)


def throughput_metrics(compiled: CompiledStencil, points: float,
                       elapsed_seconds: float) -> Tuple[float, float]:
    """``(GStencil/s, GFlops/s)`` of a run — Eq. 12 and the Table-3 metric.

    Shared by every executor so the throughput definition cannot diverge
    between the single-device and sharded paths.
    """
    if elapsed_seconds <= 0.0:
        return 0.0, 0.0
    gstencil = points / elapsed_seconds / 1e9
    flops = 2.0 * compiled.original_pattern.points * points
    return gstencil, flops / elapsed_seconds / 1e9
