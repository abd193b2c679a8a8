"""Bit-identity pin for the tcu-sim sweep.

The oracle is the tcu-sim sweep written out as the plain chain of library
stages: ``gather_b_matrix`` -> ``ConversionResult.apply_to_b`` -> the 2:4
sparse MMA on the ``dtype.numpy_dtype`` operand (a frozen copy of its
chunked float32 contraction lives here) -> ``assemble_output``, priced by
``execute_launch``.  Every engine path that runs a tcu-sim sweep must match
it bit for bit — output *and* every modelled ``LaunchResult`` field — over
the Table-2 kernels, every sparse precision, ragged LUT-padded grids, fused
plans with leftover sweeps, periodic/reflect boundaries, the FP64 dense
path and the sharded executor.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

import repro.engine.base as engine_base
from repro import get_benchmark, make_grid, table2_benchmarks
from repro.core.conversion import convert_to_24
from repro.core.fusion import fused_iterations
from repro.core.lookup_table import gather_b_matrix, patch_view
from repro.core.morphing import MorphConfig, assemble_output, \
    morph_kernel_matrix
from repro.core.pipeline import compile_stencil
from repro.core.staircase import block_structure_from_morph
from repro.engine import (
    ShardedExecutor,
    SingleDeviceExecutor,
    gather_step,
    leftover_plan,
    mma_step,
    prepare_sweep,
    run_sweep,
)
from repro.service import CompileCache
from repro.stencils.boundary import apply_boundary
from repro.stencils.catalog import full_catalog
from repro.tcu.executor import KernelLaunch, LaunchResult, execute_launch
from repro.tcu.sparsity24 import Compressed24, compress_24
from repro.tcu.spec import DataType
from repro.util.arrays import pad_to_multiple
from repro.util.validation import ValidationError

KERNELS = [config.name for config in table2_benchmarks()]
SPARSE_DTYPES = [DataType.FP16, DataType.BF16, DataType.TF32]


# ---------------------------------------------------------------------- #
# the oracle
# ---------------------------------------------------------------------- #
def frozen_sparse_mma(a_operand: np.ndarray, b: np.ndarray,
                      dtype: DataType) -> np.ndarray:
    """The sparse MMA's functional result as the simulator computes it:
    compress ``A''`` at device precision, gather two ``B`` rows per
    retained value, contract in float32 over fixed row chunks."""
    compressed = compress_24(np.asarray(a_operand, dtype=dtype.numpy_dtype))
    k = compressed.k
    b_pad = pad_to_multiple(np.asarray(b, dtype=dtype.numpy_dtype), 4, axis=0)
    m, n = compressed.m, b_pad.shape[1]
    values = np.asarray(compressed.values, dtype=dtype.numpy_dtype)
    columns = (np.repeat(np.arange(k // 4) * 4, 2)[None, :]
               + compressed.indices.astype(np.int64))
    d = np.empty((m, n), dtype=np.float32)
    row_chunk = max(1, int(2**22 // max(1, (k // 2) * n)))
    for start in range(0, m, row_chunk):
        stop = min(m, start + row_chunk)
        gathered = b_pad[columns[start:stop]]
        vals = values[start:stop].astype(np.float32)[:, :, None]
        d[start:stop] = np.einsum(
            "rkn,rkn->rn", gathered.astype(np.float32),
            np.broadcast_to(vals, gathered.shape))
    return d.astype(np.float64)


def oracle_sweep(context, current: np.ndarray) -> LaunchResult:
    """One sweep through the plain stage chain, updating ``current``."""
    plan = context.plan
    b = gather_b_matrix(plan.lut, current)
    if plan.conversion is not None:
        b = plan.conversion.apply_to_b(b)
    launch = execute_launch(KernelLaunch(
        name=context.launch_name, engine=plan.engine, a=plan.a_operand, b=b,
        fragment=plan.fragment, dtype=plan.dtype,
        traffic=plan.estimate.traffic,
        threads_per_block=plan.threads_per_block, blocks=plan.blocks,
        registers_per_thread=plan.registers_per_thread), context.spec)
    if plan.engine == "sparse_mma":
        output = frozen_sparse_mma(plan.a_operand, b, plan.dtype)
        assert np.array_equal(output, launch.output)
        launch = dataclasses.replace(launch, output=output)
    current[context.interior] = assemble_output(
        launch.output, context.compiled.geometry())
    return launch


def oracle_run(compiled, grid, iterations: int):
    """The single-device loop (fused sweeps, then leftover sweeps, halo
    refreshed around each) over :func:`oracle_sweep`."""
    fused, leftover = fused_iterations(iterations, compiled.temporal_fusion)
    current = grid.data.copy()
    launches = []
    phases = [(compiled, fused)]
    if leftover:
        phases.append((leftover_plan(compiled), leftover))
    for plan, sweeps in phases:
        if not sweeps:
            continue
        context = prepare_sweep(plan)
        apply_boundary(current, context.radius, compiled.boundary)
        for _ in range(sweeps):
            launches.append(oracle_sweep(context, current))
            apply_boundary(current, context.radius, compiled.boundary)
    return current, launches


def assert_same_launch(got: LaunchResult, want: LaunchResult) -> None:
    for field in dataclasses.fields(LaunchResult):
        if field.name == "output":
            continue
        assert getattr(got, field.name) == getattr(want, field.name), \
            field.name


def assert_sweeps_match(compiled, grid, sweeps: int = 2) -> None:
    """``run_sweep`` equals the oracle sweep for ``sweeps`` chained sweeps."""
    context = prepare_sweep(compiled)
    ours = grid.data.copy()
    theirs = grid.data.copy()
    for _ in range(sweeps):
        got = run_sweep(context, ours)
        want = oracle_sweep(context, theirs)
        assert np.array_equal(ours, theirs)
        assert_same_launch(got, want)


@lru_cache(maxsize=None)
def table2_plan(name: str, dtype: DataType):
    config = get_benchmark(name)
    return compile_stencil(config.pattern, config.sim_grid, dtype=dtype,
                           block_hint=config.block, backend="tcu-sim")


def random_grid(shape, seed: int = 7, boundary: str = "dirichlet"):
    return make_grid(shape, kind="random", seed=seed, boundary=boundary)


# ---------------------------------------------------------------------- #
# the pin
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", SPARSE_DTYPES, ids=lambda d: d.value)
@pytest.mark.parametrize("name", KERNELS)
def test_table2_sweeps_match_oracle(name, dtype):
    compiled = table2_plan(name, dtype)
    assert_sweeps_match(compiled, random_grid(compiled.grid_shape))


@pytest.mark.parametrize("name,shape", [("Box-3D27P", (30, 31, 33)),
                                        ("Box-2D9P", (61, 45))])
def test_ragged_lut_padded_grid(name, shape):
    compiled = compile_stencil(get_benchmark(name).pattern, shape,
                               backend="tcu-sim")
    lut = compiled.plan.lut
    assert lut.padded_grid_shape != lut.grid_shape
    assert_sweeps_match(compiled, random_grid(shape))


def test_fp64_dense_plan():
    compiled = compile_stencil(get_benchmark("Heat-2D").pattern, (64, 64),
                               dtype=DataType.FP64, backend="tcu-sim")
    assert compiled.plan.engine == "dense_mma"
    assert_sweeps_match(compiled, random_grid((64, 64)))


def test_fused_plan_with_leftover_sweeps():
    compiled = compile_stencil(get_benchmark("Heat-2D").pattern, (60, 60),
                               temporal_fusion=2, backend="tcu-sim")
    grid = random_grid((60, 60))
    result = SingleDeviceExecutor().execute(compiled, grid, 5)
    output, launches = oracle_run(compiled, grid, 5)
    assert result.leftover_sweeps == 1
    assert np.array_equal(result.output, output)
    assert result.elapsed_seconds == sum(l.elapsed_seconds for l in launches)
    assert result.compute_seconds == sum(l.compute_seconds for l in launches)


@pytest.mark.parametrize("boundary", ["periodic", "reflect"])
@pytest.mark.parametrize("name", ["Box-2D9P", "Star-2D13P", "Heat-3D"])
def test_boundaries(name, boundary):
    shape = (48, 40) if get_benchmark(name).pattern.ndim == 2 else (20, 18, 22)
    compiled = compile_stencil(get_benchmark(name).pattern, shape,
                               boundary=boundary, backend="tcu-sim")
    grid = random_grid(shape, boundary=boundary)
    result = SingleDeviceExecutor().execute(compiled, grid, 3)
    output, launches = oracle_run(compiled, grid, 3)
    assert np.array_equal(result.output, output)
    assert result.elapsed_seconds == sum(l.elapsed_seconds for l in launches)


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name,boundary", [("Heat-2D", "dirichlet"),
                                           ("Box-2D9P", "periodic"),
                                           ("Star-2D13P", "reflect")])
def test_sharded_executor(name, boundary, shards):
    compiled = compile_stencil(get_benchmark(name).pattern, (64, 56),
                               boundary=boundary, backend="tcu-sim")
    grid = random_grid((64, 56), boundary=boundary)
    sharded = ShardedExecutor(shards).execute(compiled, grid, 3)
    output, _ = oracle_run(compiled, grid, 3)
    assert np.array_equal(sharded.output, output)


# ---------------------------------------------------------------------- #
# the per-plan memo
# ---------------------------------------------------------------------- #
def fresh_plan(name: str = "Box-2D9P", shape=(48, 40)):
    """A newly compiled plan object, so its sweep memo is not built yet."""
    compiled = compile_stencil(get_benchmark(name).pattern, shape,
                               backend="tcu-sim")
    assert not hasattr(compiled.plan, "_sparse_sweep_memo")
    return compiled


def swept(compiled, grid, sweeps: int = 2) -> np.ndarray:
    context = prepare_sweep(compiled)
    current = grid.data.copy()
    for _ in range(sweeps):
        run_sweep(context, current)
    return current


@pytest.mark.parametrize("name", KERNELS)
def test_table2_luts_take_the_strided_view(name):
    plan = table2_plan(name, DataType.FP16).plan
    shape, _ = patch_view(plan.lut,
                          plan.config.patch_shape(plan.pattern.diameter),
                          plan.config.r)
    assert int(np.prod(shape)) == plan.lut.k_prime * plan.lut.n_prime


def test_gather_step_builds_b_prime_not_the_row_gather():
    """The ``(m, k/2, n)`` row gather happens per row chunk inside the
    contraction; the operand handed between the steps is ``B'`` plus its
    zero row, so a sweep's memory stays bounded."""
    compiled = fresh_plan()
    plan = compiled.plan
    context = prepare_sweep(compiled)
    current = random_grid(compiled.grid_shape).data.copy()
    b_operand = gather_step(context, current)
    assert b_operand.shape == (plan.lut.k_prime + 1, plan.n_prime)
    assert b_operand.dtype == np.float32
    assert not b_operand[-1].any()
    with pytest.raises(ValidationError):
        mma_step(context, b_operand[:-1])


def tampered_plan(compiled, **lut_changes):
    plan = compiled.plan
    lut = dataclasses.replace(plan.lut, **lut_changes)
    return dataclasses.replace(compiled,
                               plan=dataclasses.replace(plan, lut=lut))


def test_irregular_lut_is_rejected():
    """A LUT the strided view cannot reproduce is refused when the memo is
    built, so the tables stay checked against the view."""
    compiled = fresh_plan()
    shuffled = tampered_plan(compiled, column_base=np.random.default_rng(3)
                             .permutation(compiled.plan.lut.column_base))
    grid = random_grid(compiled.grid_shape)
    with pytest.raises(ValidationError, match="row-major"):
        swept(shuffled, grid)


def test_lut_whose_view_leaves_the_padded_grid_is_rejected():
    """Tables that match the view but index past a shrunk padded grid are
    refused: the strided view checks no bounds itself."""
    compiled = fresh_plan()
    lut = compiled.plan.lut
    shrunk = tampered_plan(compiled, padded_grid_shape=(
        lut.padded_grid_shape[0] - 1,) + lut.padded_grid_shape[1:])
    with pytest.raises(ValidationError, match="padded grid"):
        swept(shrunk, random_grid(compiled.grid_shape))


def test_row_map_follows_the_compressed_indices(monkeypatch):
    """Moving one retained value to another slot of its 4-group in the
    metadata changes the product: the sweep reads the indices, not A''."""
    grid = random_grid((48, 40))
    honest = swept(fresh_plan(), grid)

    def tampered_compress(matrix):
        compressed = compress_24(matrix)
        indices = compressed.indices.copy()
        row, slot = map(int, np.argwhere(compressed.values != 0)[0])
        group = slot // 2
        kept = set(indices[row, 2 * group:2 * group + 2].tolist())
        indices[row, slot] = min({0, 1, 2, 3} - kept)
        return Compressed24(values=compressed.values, indices=indices,
                            k=compressed.k)

    monkeypatch.setattr(engine_base, "compress_24", tampered_compress)
    tampered = swept(fresh_plan(), grid)
    assert not np.array_equal(honest, tampered)


def test_scatter_rows_equals_the_permutation_loop():
    for pattern in full_catalog():
        config = MorphConfig.from_r1_r2(pattern.ndim, 4, 2)
        conversion = convert_to_24(
            morph_kernel_matrix(pattern, config),
            structure=block_structure_from_morph(pattern, config))
        expected = np.empty(conversion.n_original, dtype=np.int64)
        for slot, source in enumerate(conversion.permutation):
            if source < conversion.n_original:
                expected[source] = slot
        assert np.array_equal(conversion.scatter_rows, expected), pattern.name
        assert conversion.scatter_rows is conversion.scatter_rows
        assert not conversion.scatter_rows.flags.writeable


def test_concurrent_first_sweeps_build_the_memo_once(monkeypatch):
    compiled = fresh_plan()
    grid = random_grid(compiled.grid_shape)
    builds = []
    build = engine_base._build_sparse_memo

    def slow_build(plan):
        builds.append(plan)
        time.sleep(0.05)  # hold the build open while the others arrive
        return build(plan)

    monkeypatch.setattr(engine_base, "_build_sparse_memo", slow_build)
    workers = 6  # more threads than cores
    barrier = threading.Barrier(workers)

    def first_sweep(_):
        context = prepare_sweep(compiled)
        current = grid.data.copy()
        barrier.wait(timeout=60)
        launch = run_sweep(context, current)
        return current, launch

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(first_sweep, i) for i in range(workers)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    expected = grid.data.copy()
    want = oracle_sweep(prepare_sweep(compiled), expected)
    for current, launch in results:
        assert np.array_equal(current, expected)
        assert_same_launch(launch, want)


def test_persisted_plan_sweeps_identically(tmp_path):
    pattern = get_benchmark("Star-2D13P").pattern
    first = CompileCache(persist_dir=tmp_path)
    compiled = first.compile(pattern, (40, 44), backend="tcu-sim")
    grid = random_grid((40, 44))
    payload = len(pickle.dumps(compiled))
    output = swept(compiled, grid)
    assert hasattr(compiled.plan, "_sparse_sweep_memo")
    assert len(pickle.dumps(compiled)) == payload

    second = CompileCache(persist_dir=tmp_path)
    reloaded = second.compile(pattern, (40, 44), backend="tcu-sim")
    assert second.stats.disk_hits == 1
    assert not hasattr(reloaded.plan, "_sparse_sweep_memo")
    reloaded_payload = len(pickle.dumps(reloaded))
    assert np.array_equal(swept(reloaded, grid), output)
    assert len(pickle.dumps(reloaded)) == reloaded_payload
