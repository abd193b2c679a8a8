"""Executing a compiled :class:`~repro.programs.compile.ProgramPlan`.

Two runners share the execution contract of
:func:`repro.programs.program.run_program_reference`:

* :class:`ProgramRunner` — single device.  Stages run in topological order
  through the engine step API; every tap reads a halo-filled copy of its
  source tensor, tap results sum in declaration order, and the stage tensor
  is halo-filled at the stage radius.  Because a boundary fill at radius
  ``r`` is idempotent over a tensor already filled at ``r``, redundant tap
  fills are skipped — a uniform-radius chain performs exactly one fill per
  stage (one per program *step* for a single-stage program), and for a
  single-stage chain the bits match :class:`repro.engine.SingleDeviceExecutor`
  exactly.
* :class:`ShardedProgramRunner` — not a runner of its own but a round
  schedule for the stencil engine's sharded round loop
  (:class:`repro.engine.ShardedExecutor` runs the same loop).
  Uniform-radius chain programs partition once (tiles aligned to the
  per-axis LCM of every stage's layout tiles, so each stage's shard-local
  ``B'`` columns stay bit-identical to its global ones) and feed the fused
  stage groups once per step: one halo exchange validates a whole group,
  with stage ``j`` of a group sweeping on the shrinking window
  ``mult = span-1-j``.  Unfused execution (``fuse=False``) exchanges once
  per stage — still only ``rounds - 1`` exchanges total, because the first
  round reads the initial extraction and nothing reads halos after the
  final sweep.  A one-stage chain therefore runs exactly like
  ``ShardedExecutor(halo_depth=1)``, bits and billing alike.

:func:`model_program` prices that schedule with the engine's round-pricing
walk, the one behind :func:`repro.engine.sharded.model_schedule`, so the
:class:`repro.server.scheduler.DevicePoolScheduler` can route programs and
the fusion benchmark can count modelled exchanges without executing.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pipeline import StencilRunResult
from repro.engine.base import prepare_sweep, run_sweep, summarize_launches
from repro.engine.sharded import (
    ShardedRunResult,
    _ShardedRunner,
    _price_rounds,
    _standard_layout,
)
# re-exported: perfbench patches it here too; the loop calls the engine's
from repro.engine.sharded import run_shard_phase  # noqa: F401
from repro.obs.trace import current_span
from repro.programs.compile import ProgramPlan
from repro.programs.program import STATE
from repro.stencils.boundary import apply_boundary
from repro.stencils.grid import Grid
from repro.stencils.partition import GridPartition
from repro.stencils.reference import stencil_points_updated
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import GPUSpec, MultiDeviceSpec
from repro.util.validation import ValidationError, require, require_positive_int

__all__ = [
    "ProgramRunner",
    "ShardedProgramRunner",
    "ProgramCostModel",
    "model_program",
]


def _program_throughput(plan: ProgramPlan, steps: int) -> Tuple[float, float]:
    """``(points, flops)`` of ``steps`` program steps: every tap of every
    stage updates the full interior once per step."""
    points = flops = 0.0
    for cstage in plan.stages:
        for _, pattern in cstage.stage.taps:
            tap_points = stencil_points_updated(pattern, plan.grid_shape,
                                                steps)
            points += tap_points
            flops += 2.0 * pattern.points * tap_points
    return float(points), float(flops)


def _rates(points: float, flops: float,
           elapsed: float) -> Tuple[float, float]:
    """``(GStencil/s, GFlops/s)`` of ``points`` updates and ``flops``
    floating-point operations in ``elapsed`` modelled seconds."""
    if elapsed <= 0:
        return 0.0, 0.0
    return points / elapsed / 1e9, flops / elapsed / 1e9


def _check_run(plan: ProgramPlan, grid: Grid, steps: int) -> None:
    require(isinstance(plan, ProgramPlan),
            f"plan must be a ProgramPlan, got {type(plan).__name__}")
    require_positive_int(steps, "steps")
    require(tuple(grid.shape) == plan.grid_shape,
            f"grid shape {tuple(grid.shape)} does not match the compiled "
            f"program shape {plan.grid_shape}")
    require(grid.boundary == plan.boundary,
            f"grid boundary {grid.boundary!r} does not match the compiled "
            f"program boundary {plan.boundary!r} — recompile for this grid")


class ProgramRunner:
    """Run a compiled program on one simulated device.

    ``spec`` overrides the device the sweeps are costed on (defaults to the
    device each stage was compiled for).
    """

    def __init__(self, spec: Optional[GPUSpec] = None) -> None:
        self.spec = spec

    def execute(self, plan: ProgramPlan, grid: Grid,
                steps: int) -> StencilRunResult:
        _check_run(plan, grid, steps)
        program = plan.program
        boundary = plan.boundary
        shape = plan.grid_shape
        contexts = {
            cstage.name: tuple(prepare_sweep(compiled, self.spec)
                               for compiled in cstage.compiled)
            for cstage in plan.stages
        }

        trace = current_span()
        tracer = trace.tracer if trace is not None else None

        state = grid.data.copy()
        launches: List[LaunchResult] = []
        # boundary-fill radius each tensor currently carries; a fill is
        # idempotent at the *same* radius (ghost layer d is a pure per-layer
        # function of interior layer d), so equal-radius tap fills are
        # skipped — but a *different* radius re-fills, exactly like the
        # reference
        state_filled: Optional[int] = None
        for step in range(steps):
            step_span = tracer.begin(
                "program_step", parent=trace, step=step,
                program=program.name) if tracer is not None else None
            tensors: Dict[str, np.ndarray] = {STATE: state}
            filled: Dict[str, Optional[int]] = {STATE: state_filled}
            step_device = 0.0
            for cstage in plan.stages:
                stage = cstage.stage
                stage_radius = stage.radius
                interior = tuple(slice(stage_radius, s - stage_radius)
                                 for s in shape)
                stage_start = time.perf_counter()
                stage_device = 0.0
                acc: Optional[np.ndarray] = None
                for (source, pattern), context in zip(
                        stage.taps, contexts[cstage.name]):
                    data = tensors[source].copy()
                    # a radius-0 tap (e.g. an identity term of a multi-tap
                    # stage) reads no ghost cells and needs no fill
                    if pattern.radius > 0 \
                            and filled.get(source) != pattern.radius:
                        apply_boundary(data, pattern.radius, boundary)
                    launch = run_sweep(context, data)
                    launches.append(launch)
                    stage_device += launch.elapsed_seconds
                    term = data[interior]
                    acc = term if acc is None else acc + term
                out = tensors[stage.taps[0][0]].copy()
                out[interior] = acc
                if stage_radius > 0:
                    apply_boundary(out, stage_radius, boundary)
                tensors[cstage.name] = out
                filled[cstage.name] = stage_radius
                step_device += stage_device
                if tracer is not None:
                    tracer.record("stage", stage_start, time.perf_counter(),
                                  parent=step_span, stage=cstage.name,
                                  device_seconds=stage_device,
                                  taps=len(stage.taps))
            state = tensors[program.output]
            state_filled = filled[program.output]
            if tracer is not None and step_span is not None:
                step_span.add_device_seconds(step_device)
                tracer.end(step_span)

        totals = summarize_launches(launches)
        points, flops = _program_throughput(plan, steps)
        elapsed = totals.elapsed_seconds
        gstencil, gflops = _rates(points, flops, elapsed)
        return StencilRunResult(
            output=state,
            iterations=steps,
            elapsed_seconds=elapsed,
            compute_seconds=totals.compute_seconds,
            memory_seconds=totals.memory_seconds,
            gstencil_per_second=gstencil,
            gflops_per_second=gflops,
            utilization=totals.utilization,
            overhead_seconds={"program_compile": plan.compile_seconds},
            sweeps=len(launches),
            leftover_sweeps=0,
            points_updated=points,
        )


def _program_alignment(plan: ProgramPlan) -> Tuple[int, ...]:
    """Per-axis LCM of every stage's layout tile extents.

    Partition chunks aligned to this are tile-congruent for *every* stage's
    ``(r1, r2)`` layout at once, which is what keeps each stage's
    shard-local ``B'`` columns bit-identical to its global plan's.
    """
    ndim = len(plan.grid_shape)
    align = [1] * ndim
    for cstage in plan.stages:
        for compiled in cstage.compiled:
            config = compiled.plan.config
            require(_standard_layout(compiled),
                    f"stage {cstage.name!r} layout config {config.r} is not "
                    f"expressible as (r1, r2) — sharded program execution "
                    f"supports the standard morph layouts only")
            for axis, extent in enumerate(config.r):
                align[axis] = math.lcm(align[axis], int(extent))
    return tuple(align)


class ShardedProgramRunner(_ShardedRunner):
    """Run a compiled chain program sharded across multiple devices.

    Parameters mirror :class:`repro.engine.ShardedExecutor` (``spec`` may be
    a :class:`~repro.tcu.spec.MultiDeviceSpec` or a device count;
    ``shard_grid``, ``cache``, ``max_workers``, ``overlap`` as there);
    ``fuse`` toggles cross-stage fusion — fused groups exchange once per
    group, unfused execution exchanges once per stage.  Only uniform-radius
    chain programs shard; anything else must run on :class:`ProgramRunner`.
    """

    def __init__(self, spec: Union[MultiDeviceSpec, int] = 2,
                 shard_grid: Optional[Sequence[int]] = None,
                 cache=None, max_workers: Optional[int] = None,
                 fuse: bool = True, overlap: bool = True) -> None:
        super().__init__(spec, shard_grid, cache, max_workers, overlap)
        self.fuse = bool(fuse)

    def resolve_spec(self, plan: ProgramPlan) -> MultiDeviceSpec:
        return self._cluster(plan.stages[0].compiled[0].spec)

    def partition(self, plan: ProgramPlan
                  ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
        """The common partition plus the round groups (stage names per round).

        Fused groups come from the compile-time :class:`FusionPlan`,
        re-chunked to the deepest halo the geometry supports; ``fuse=False``
        degrades to singleton groups on a classic depth-1 partition (one
        exchange per stage).  The partition's ``halo_depth`` is the longest
        group's span.
        """
        require(plan.program.is_chain,
                f"sharded execution supports single-tap chain programs only; "
                f"{plan.program.name!r} is a general DAG — run it on the "
                f"single-device program runner")
        require(plan.uniform_radius,
                f"sharded execution needs a uniform stage radius; "
                f"{plan.program.name!r} mixes radii "
                f"{sorted({s.radius for s in plan.stages})}")
        align = _program_alignment(plan)
        cap = GridPartition.max_halo_depth(
            plan.grid_shape, plan.radius, self._shard_request, align=align,
            boundary=plan.boundary)
        if self.fuse:
            groups = plan.fusion.bounded(cap)
        else:
            groups = tuple((name,) for name in plan.program.stage_names)
        partition = GridPartition.build(
            plan.grid_shape, plan.radius, self._shard_request, align=align,
            boundary=plan.boundary,
            halo_depth=max(len(group) for group in groups))
        return self._fits(partition), groups

    def execute(self, plan: ProgramPlan, grid: Grid,
                steps: int) -> ShardedRunResult:
        """The engine's round loop, fed the fused groups once per step."""
        _check_run(plan, grid, steps)
        spec = self.resolve_spec(plan)
        partition, groups = self.partition(plan)
        points, flops = _program_throughput(plan, steps)
        return self._run(
            {cstage.name: cstage.compiled[0] for cstage in plan.stages},
            spec, partition, grid, [groups] * steps,
            iterations=steps, points=points,
            throughput=functools.partial(_rates, points, flops),
            overhead={"program_compile": plan.compile_seconds},
            step_attrs={"program": plan.program.name, "groups": len(groups)})


@dataclass(frozen=True)
class ProgramCostModel:
    """Modelled cost of running one program for ``steps`` steps.

    ``sharded_seconds`` is ``None`` when the program cannot shard (not a
    uniform-radius chain, or the geometry rejects the partition) — the
    ``reason`` says why.  ``exchange_count`` is the *modelled* number of
    halo exchanges of the whole run; comparing ``fuse=True`` against
    ``fuse=False`` shows exactly how many exchanges fusion removes.
    """

    steps: int
    devices: int
    fused: bool
    groups: Tuple[Tuple[str, ...], ...]
    halo_depth: int
    single_seconds: float
    sharded_seconds: Optional[float]
    exchange_count: int
    halo_seconds: float
    exposed_seconds: float
    reason: str

    @property
    def exchanges_per_step(self) -> float:
        return self.exchange_count / self.steps if self.steps else 0.0

    @property
    def speedup(self) -> float:
        """Modelled single over sharded wall time (0 when unshardable)."""
        if not self.sharded_seconds:
            return 0.0
        return self.single_seconds / self.sharded_seconds

    @property
    def recommendation(self) -> str:
        if self.sharded_seconds is not None \
                and self.sharded_seconds < self.single_seconds:
            return "sharded"
        return "single"


def model_program(plan: ProgramPlan, devices: int = 2, steps: int = 1,
                  shard_grid: Optional[Sequence[int]] = None,
                  fuse: bool = True, overlap: bool = True,
                  spec: Optional[MultiDeviceSpec] = None) -> ProgramCostModel:
    """Price ``steps`` program steps on one device and on ``devices`` shards.

    The sharded estimate partitions exactly as :class:`ShardedProgramRunner`
    does — a shard grid the runner refuses is unshardable here too — and
    prices the runner's round schedule (the fused groups once per step)
    with :func:`repro.engine.sharded.model_schedule`'s walk, each stage's
    full-grid modelled sweep time scaled linearly by its window's share of
    the output cells.  The scheduler therefore routes programs and plain
    kernels through one pricing model.
    """
    require_positive_int(steps, "steps")
    single_seconds = plan.single_step_seconds * steps
    if spec is not None:
        devices = spec.device_count

    def unsharded(reason: str) -> ProgramCostModel:
        return ProgramCostModel(
            steps=steps, devices=devices, fused=False,
            groups=tuple((name,) for name in plan.program.stage_names),
            halo_depth=1, single_seconds=single_seconds,
            sharded_seconds=None, exchange_count=0, halo_seconds=0.0,
            exposed_seconds=0.0, reason=reason)

    if devices <= 1:
        return unsharded("a single device has nothing to shard over")
    runner = ShardedProgramRunner(spec if spec is not None else devices,
                                  shard_grid=shard_grid, fuse=fuse,
                                  overlap=overlap)
    try:
        partition, groups = runner.partition(plan)
    except ValidationError as error:
        return unsharded(str(error))
    if partition.n_shards <= 1:
        return unsharded("the partition degenerates to one shard")

    priced = _price_rounds(
        partition, runner.resolve_spec(plan), plan.dtype.itemsize,
        groups * steps,
        {cstage.name: cstage.sweep_seconds for cstage in plan.stages},
        overlap)
    depth = partition.halo_depth
    return ProgramCostModel(
        steps=steps,
        devices=devices,
        fused=any(len(group) > 1 for group in groups),
        groups=groups,
        halo_depth=depth,
        single_seconds=single_seconds,
        sharded_seconds=priced.wall,
        exchange_count=priced.exchanges,
        halo_seconds=priced.halo_total,
        exposed_seconds=priced.exposed,
        reason=f"{len(groups)} group(s) per step, depth {depth}, "
               f"{priced.exchanges} exchange(s) over {steps} step(s)",
    )
