"""Sharded multi-device executor: communication-avoiding halo exchange.

The grid's output region is tiled into per-shard subgrids
(:class:`repro.stencils.partition.GridPartition`), one shard per simulated
device.  Each shard gets its own compiled plan — obtained through the
:class:`repro.service.CompileCache`, so shards with equal subgrid shapes
share one fingerprint and compile once — pinned to the *same* layout config
as the reference plan and aligned to its tile extents.  That alignment makes
every shard-local ``B'`` column bit-identical to the corresponding column of
the global ``B'``, which is what lets the sharded run reproduce the
single-device output exactly.

Communication avoidance happens along two axes:

* **Deep halos** (``halo_depth = k``): ghost regions are ``k`` shrink-steps
  wide and halos are exchanged once per *round* of ``k`` sweeps instead of
  once per sweep.  The intervening sweeps run on shrinking windows that
  recompute the ghost zone redundantly — sweep ``j`` of a round extends
  ``(k-1-j)`` steps past the owned interior, so by the round's last sweep
  the valid region has shrunk to exactly the interior.  Because windows
  shrink in tile-congruent steps, the redundant cells recompute *exactly*
  the neighbouring shard's bits and the output stays identical to the
  single-device run.  Locally supplied faces (reflect mirrors, periodic
  self-wraps) are refreshed every sweep, mirroring
  :func:`repro.stencils.boundary.apply_boundary`.
* **Compute/comm overlap**: the sweep immediately after an exchange is
  split into an *interior* phase (cells no exchanged ghost can reach) and a
  *rim* phase (the rest), and the modelled wall time of exchange + sweep
  becomes ``max(interior_compute, halo_exchange) + rim_compute`` — the
  exchange rides under the interior compute instead of serialising with it.

The modelled wall time is the weak-scaling critical path: slowest shard per
sweep plus whatever exchange time the overlap could not hide.

One round loop runs both sharded runners: :class:`ShardedExecutor` feeds it
one plan in ``halo_depth``-sized rounds, and
:class:`repro.programs.ShardedProgramRunner` feeds it a program's fused stage
groups once per step.  One walk over the same round schedules prices them
(:func:`model_round`, :func:`model_schedule` and
:func:`repro.programs.model_program`), billing each sweep with the loop's
overlap rule.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fusion import fused_iterations
from repro.core.morphing import MorphConfig
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.engine.base import (
    SweepContext,
    original_points,
    prepare_sweep,
    run_sweep,
    summarize_launches,
    throughput_metrics,
)
from repro.obs.trace import current_span
from repro.stencils.boundary import apply_boundary
from repro.stencils.grid import Grid
from repro.stencils.partition import GridPartition
from repro.tcu.counters import UtilizationReport, combine_utilization
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import MultiDeviceSpec
from repro.util.parallel import default_workers, parallel_map
from repro.util.validation import require, require_positive_int

__all__ = ["ShardedExecutor", "ShardedRunResult", "HaloRoundModel",
           "model_round", "model_schedule", "window_plan_seconds",
           "window_request", "build_shard_phases", "run_shard_phase"]


def window_request(compiled: CompiledStencil, device, shape: Tuple[int, ...]):
    """The compile request for one shard window: the global plan's layout
    (``r1``/``r2`` pinned, no search) at the window's shape — the pinning
    that makes shard-local tiles bit-identical to the global ones."""
    from repro.service.fingerprint import CompileRequest

    config = compiled.plan.config
    return CompileRequest.build(
        compiled.original_pattern, shape,
        dtype=compiled.plan.dtype,
        spec=device,
        engine=compiled.engine,
        fragment=compiled.plan.fragment,
        search=False,
        r1=config.r1,
        r2=config.r2,
        temporal_fusion=compiled.temporal_fusion,
        conversion_method=compiled.conversion_method,
        boundary=compiled.boundary,
        backend=compiled.backend,
    )


def window_plan_seconds(compiled: CompiledStencil, spec: MultiDeviceSpec,
                        partition: GridPartition, cache=None,
                        max_workers: Optional[int] = None
                        ) -> List[List[float]]:
    """Per-``(shard, mult)`` modelled sweep seconds from each window's own
    compiled roofline estimate.

    This is exactly what the executor bills per window sweep
    (``max(t_compute, t_memory)`` of the window plan), so feeding the
    result into :func:`model_round` makes the analytic round prediction
    match the measured modelled timeline instead of assuming compute scales
    linearly with window cells.  Plans go through ``cache`` — share the
    executor's cache and the later run compiles nothing new.
    """
    from repro.service.cache import CompileCache

    if cache is None:
        cache = CompileCache(
            capacity=max(8, partition.n_shards * partition.halo_depth))
    shapes = [[tuple(s.stop - s.start for s in partition.window(shard, mult))
               for mult in range(partition.halo_depth)]
              for shard in partition.shards]
    distinct = {}
    for rows in shapes:
        for shape in rows:
            request = window_request(compiled, spec.device, shape)
            distinct.setdefault(shape, request)
    parallel_map(cache.get_or_compile, list(distinct.values()),
                 max_workers=max_workers)
    seconds = {
        shape: cache.get_or_compile(request).plan.estimate.t_total
        for shape, request in distinct.items()
    }
    return [[seconds[shape] for shape in rows] for rows in shapes]


@dataclass(frozen=True)
class ShardedRunResult(StencilRunResult):
    """A :class:`StencilRunResult` plus the multi-device execution picture.

    ``elapsed_seconds`` is the modelled *wall* time of the cluster (critical
    shard per sweep plus the exchange time the overlap could not hide);
    ``compute_seconds`` and ``memory_seconds`` are the same critical-path
    decomposition.  Per-shard device time and utilization are kept so the
    analysis layer can report load balance and scaling efficiency.

    ``halo_exchange_seconds`` is the total modelled interconnect time of all
    exchanges; ``halo_exposed_seconds`` is the part that actually extended
    the wall clock (with overlap enabled the interior compute hides the
    rest).  ``redundant_points_updated`` counts the ghost-zone stencil
    updates deep halos recompute instead of communicating.
    """

    shard_grid: Tuple[int, ...] = ()
    device_count: int = 1
    shard_elapsed_seconds: Tuple[float, ...] = ()
    shard_utilization: Tuple[UtilizationReport, ...] = ()
    halo_exchange_bytes: float = 0.0
    halo_exchange_seconds: float = 0.0
    halo_exposed_seconds: float = 0.0
    halo_exchange_count: int = 0
    halo_depth: int = 1
    overlap: bool = True
    redundant_points_updated: float = 0.0
    device_traffic_bytes: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shard_elapsed_seconds)

    @property
    def halo_traffic_fraction(self) -> float:
        """Share of the modelled wall time *exposed* to halo exchange.

        This is the communication cost that actually hurts: exchange time
        the interior compute could not hide (all of it when overlap is
        disabled).  The byte-level view lives in :attr:`halo_bytes_fraction`.
        """
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.halo_exposed_seconds / self.elapsed_seconds

    @property
    def halo_bytes_fraction(self) -> float:
        """Share of all modelled byte movement that was halo exchange."""
        total = self.halo_exchange_bytes + self.device_traffic_bytes
        return self.halo_exchange_bytes / total if total > 0 else 0.0

    @property
    def redundant_compute_fraction(self) -> float:
        """Share of all stencil updates that were redundant ghost-zone
        recompute (the price of deep halos)."""
        total = self.points_updated + self.redundant_points_updated
        return self.redundant_points_updated / total if total > 0 else 0.0

    @property
    def load_balance(self) -> float:
        """Fastest over slowest shard device time (1.0 = perfectly balanced)."""
        if not self.shard_elapsed_seconds:
            return 1.0
        slowest = max(self.shard_elapsed_seconds)
        return min(self.shard_elapsed_seconds) / slowest if slowest > 0 else 1.0


@dataclass(frozen=True)
class _ShardPhase:
    """Per-(shard, window-mult) sweep state: the compiled context plus the
    precomputed window geometry."""

    context: SweepContext
    window: Tuple[slice, ...]
    writeback: Tuple[slice, ...]
    whole: bool                 #: window covers the entire local array
    out_cells: int              #: outputs this window computes
    dram_bytes: float           #: modelled DRAM traffic of one sweep


def _standard_layout(compiled: CompiledStencil) -> bool:
    """Whether the plan's layout is a standard ``(r1, r2)`` morph — the
    only layouts sharded execution supports."""
    config = compiled.plan.config
    return MorphConfig.from_r1_r2(compiled.pattern.ndim, config.r1,
                                  config.r2) == config


def _interior_cells(partition: GridPartition, shard) -> int:
    """Owned cells no freshly exchanged ghost value can reach in one sweep
    (the overlap's interior phase — everything else is rim)."""
    faces = partition.exchanged_faces(shard)
    radius = partition.radius
    cells = 1
    for axis, extent in enumerate(shard.out_shape):
        trim = sum(radius for f in faces if f[0] == axis)
        cells *= max(0, extent - trim)
    return cells


def build_shard_phases(compiled: CompiledStencil, spec: MultiDeviceSpec,
                       partition: GridPartition, cache=None,
                       max_workers: Optional[int] = None
                       ) -> List[List[_ShardPhase]]:
    """Compile (or fetch) one plan per (shard, window size), pinned to the
    global layout.

    Plans go through the compile cache keyed by the canonical fingerprint,
    so the typical partition — interior shards all the same shape, edge
    shards sharing a handful of remainder shapes, window shapes repeating
    across shards — compiles each distinct shape exactly once.  The round
    loop builds one such table per stage over the run's common partition.
    """
    from repro.service.cache import CompileCache

    if cache is None:
        cache = CompileCache(
            capacity=max(8, partition.n_shards * partition.halo_depth))

    def request_for(shape: Tuple[int, ...]):
        return window_request(compiled, spec.device, shape)

    geometry = []       # (shard, mult) -> window/writeback/shape
    requests = {}
    for shard in partition.shards:
        rows = []
        for mult in range(partition.halo_depth):
            window = partition.window(shard, mult)
            shape = tuple(s.stop - s.start for s in window)
            whole = shape == shard.subgrid_shape and all(
                s.start == 0 for s in window)
            rows.append((window, shape, whole))
            request = request_for(shape)
            requests.setdefault(request.fingerprint, request)
        geometry.append(rows)
    parallel_map(cache.get_or_compile, list(requests.values()),
                 max_workers=max_workers)

    phases: List[List[_ShardPhase]] = []
    for shard, rows in zip(partition.shards, geometry):
        shard_rows = []
        for mult, (window, shape, whole) in enumerate(rows):
            plan = cache.get_or_compile(request_for(shape))
            context = prepare_sweep(plan, spec.device)
            traffic = plan.plan.estimate.traffic
            shard_rows.append(_ShardPhase(
                context=context,
                window=window,
                writeback=partition.window_writeback(shard, mult),
                whole=whole,
                out_cells=math.prod(
                    partition.window_out_shape(shard, mult)),
                dram_bytes=float(traffic.global_bytes
                                 + traffic.metadata_bytes
                                 + traffic.lut_bytes),
            ))
        phases.append(shard_rows)
    return phases


def run_shard_phase(phase: _ShardPhase, local: np.ndarray,
                    radius: int) -> LaunchResult:
    """One shard sweep on its current window.

    A whole-array window runs in place (the classic ``halo_depth=1``
    path).  A shrunken window is copied to a contiguous buffer — shard
    plans index C-contiguous storage — swept there, and its computed
    outputs written back; the window's input ring is read-only and never
    written back.
    """
    if phase.whole:
        return run_sweep(phase.context, local)
    buffer = np.ascontiguousarray(local[phase.window])
    result = run_sweep(phase.context, buffer)
    local[phase.writeback] = buffer[tuple(
        slice(radius, s - radius) for s in buffer.shape)]
    return result


def _shard_halo_seconds(partition: GridPartition, spec: MultiDeviceSpec,
                        itemsize: int) -> List[float]:
    """Modelled interconnect seconds of one halo exchange, per shard (a lone
    shard crosses no link)."""
    if partition.n_shards <= 1:
        return [0.0]
    return [spec.exchange_seconds(elements * itemsize, messages)
            for elements, messages in zip(
                partition.received_elements_per_shard(),
                partition.messages_per_shard())]


def _bill_sweep(seconds: Sequence[float], cells: Sequence[int],
                interior: Sequence[int], halos: Sequence[float],
                after_exchange: bool, overlap: bool, steady: bool = False
                ) -> Tuple[float, float]:
    """``(wall, exposed)`` seconds one sweep adds to the critical path.

    Every argument list is per shard: the sweep's device seconds, the
    window cells it computes, the owned cells no exchanged ghost reaches,
    and one exchange's interconnect seconds.  Only the first sweep after an
    exchange pays for it.  Serialised, the slowest exchange follows the
    slowest sweep; overlapped, each shard's exchange rides under its
    interior phase and only the overflow plus the halo-dependent rim extend
    the wall clock.  ``steady`` splits the sweep the way :func:`model_round`
    always has (``seconds * interior / cells`` instead of
    ``seconds * (interior / cells)``); the two differ in the last bit and
    routing decisions depend on the former.
    """
    slowest = max(seconds)
    if not after_exchange:
        return slowest, 0.0
    if not overlap:
        halo = max(halos)
        return slowest + halo, halo
    wall = 0.0
    for sec, n, inner, halo in zip(seconds, cells, interior, halos):
        if n <= 0:
            interior_sec = 0.0
        elif steady:
            interior_sec = sec * min(inner, n) / n
        else:
            interior_sec = sec * (min(inner, n) / n)
        wall = max(wall, max(interior_sec, halo) + (sec - interior_sec))
    return wall, wall - slowest


@dataclass(frozen=True)
class HaloRoundModel:
    """Modelled cost of one steady-state round (exchange + ``k`` sweeps).

    Shared by the :class:`repro.server.scheduler.DevicePoolScheduler`
    routing estimate and the deep-halo tradeoff analysis in
    :mod:`repro.analysis.scaling`, so the router and the analyst price a
    round identically.
    """

    halo_depth: int
    round_seconds: float        #: exchange + k sweeps on the critical path
    per_sweep_seconds: float    #: ``round_seconds / k`` (the routing cost)
    compute_seconds: float      #: critical-path compute of the k sweeps
    halo_seconds: float         #: modelled interconnect time of one exchange
    exposed_seconds: float      #: exchange time the overlap could not hide
    halo_fraction: float        #: ``exposed / round`` — wall-time exposure
    redundant_fraction: float   #: redundant updates / useful updates


@dataclass
class _PricedRounds:
    """What :func:`_price_rounds` bills, summed in schedule order."""

    halo: float                 #: one exchange on the critical path
    out_cells: int              #: owned output cells of one sweep
    sweeps: List[Tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0           #: per-sweep ``(wall, compute)`` summed
    compute: float = 0.0
    exposed: float = 0.0
    halo_total: float = 0.0     #: ``halo`` once per exchange
    exchanges: int = 0
    redundant_cells: int = 0    #: window cells beyond the owned ones

    @property
    def redundant_fraction(self) -> float:
        return self.redundant_cells / (len(self.sweeps) * self.out_cells)


def _price_rounds(partition: GridPartition, spec: MultiDeviceSpec,
                  itemsize: int, rounds: Sequence[Sequence],
                  sweep_seconds: Mapping, overlap: bool,
                  window_seconds: Optional[Sequence[Sequence[float]]] = None,
                  steady: bool = False) -> _PricedRounds:
    """Price a round schedule of a multi-shard ``partition`` without running it.

    ``rounds`` holds tuples of stage keys, exactly what the round loop of
    the sharded runners executes: every round but the first opens with one
    exchange (``steady`` makes the first open with one too), and sweep ``j``
    of a span-``k`` round runs window ``mult = k-1-j``.  A sweep of stage
    ``key`` costs each shard ``sweep_seconds[key]`` scaled by its window's
    share of the output cells, or ``window_seconds[shard][mult]`` when
    given, and is billed by :func:`_bill_sweep`, like a measured sweep.
    """
    halos = _shard_halo_seconds(partition, spec, itemsize)
    out_cells = math.prod(extent - 2 * partition.radius
                          for extent in partition.grid_shape)
    window_cells = [[math.prod(partition.window_out_shape(shard, mult))
                     for mult in range(partition.halo_depth)]
                    for shard in partition.shards]
    interior = [_interior_cells(partition, shard)
                for shard in partition.shards]
    priced = _PricedRounds(halo=max(halos), out_cells=out_cells)
    after_exchange = steady
    for keys in rounds:
        if after_exchange:
            priced.exchanges += 1
            priced.halo_total += priced.halo
        for j, key in enumerate(keys):
            mult = len(keys) - 1 - j
            cells = [row[mult] for row in window_cells]
            if window_seconds is not None:
                seconds = [row[mult] for row in window_seconds]
            else:
                seconds = [sweep_seconds[key] * n / out_cells for n in cells]
            wall, exposed = _bill_sweep(seconds, cells, interior, halos,
                                        after_exchange, overlap, steady)
            priced.sweeps.append((wall, max(seconds)))
            priced.wall += wall
            priced.compute += max(seconds)
            priced.exposed += exposed
            priced.redundant_cells += sum(cells) - out_cells
            after_exchange = False
        after_exchange = True
    return priced


def _depth_rounds(sweeps: int, depth: int) -> List[Tuple[None, ...]]:
    """``sweeps`` sweeps of one plan in rounds of ``depth``, the last one
    possibly partial."""
    return [(None,) * min(depth, sweeps - start)
            for start in range(0, sweeps, depth)]


def _unsharded_model(depth: int, sweep_seconds: float,
                     sweeps: int) -> HaloRoundModel:
    total = sweep_seconds * sweeps
    return HaloRoundModel(halo_depth=depth, round_seconds=total,
                          per_sweep_seconds=sweep_seconds,
                          compute_seconds=total, halo_seconds=0.0,
                          exposed_seconds=0.0, halo_fraction=0.0,
                          redundant_fraction=0.0)


def model_round(partition: GridPartition, spec: MultiDeviceSpec,
                itemsize: int, sweep_seconds: float,
                overlap: bool = True,
                window_seconds: Optional[Sequence[Sequence[float]]] = None
                ) -> HaloRoundModel:
    """Price one steady-state round of the communication-avoiding schedule.

    ``sweep_seconds`` is the modelled single-device full-grid sweep time;
    shard compute scales by its window's share of the global output cells.
    ``window_seconds`` optionally replaces that linear scaling with exact
    per-``(shard, mult)`` sweep times (from each window's own compiled
    roofline — see :func:`window_plan_seconds`); the routing scheduler
    stays on the compile-free linear model.  The round opens with an
    exchange that overlaps the first sweep (``max(interior, halo) + rim``
    per shard); the remaining ``k-1`` sweeps are pure compute on shrinking
    windows.
    """
    k = partition.halo_depth
    if partition.n_shards <= 1:
        return _unsharded_model(k, sweep_seconds, k)
    priced = _price_rounds(partition, spec, itemsize, _depth_rounds(k, k),
                           {None: sweep_seconds}, overlap, window_seconds,
                           steady=True)
    (first_sweep, compute_first), *later = priced.sweeps
    rest = sum(compute for _, compute in later)
    round_seconds = first_sweep + rest
    exposed = round_seconds - (compute_first + rest)
    return HaloRoundModel(
        halo_depth=k,
        round_seconds=round_seconds,
        per_sweep_seconds=round_seconds / k,
        compute_seconds=compute_first + rest,
        halo_seconds=priced.halo,
        exposed_seconds=exposed,
        halo_fraction=exposed / round_seconds if round_seconds > 0 else 0.0,
        redundant_fraction=priced.redundant_fraction,
    )


def model_schedule(partition: GridPartition, spec: MultiDeviceSpec,
                   itemsize: int, sweeps: int, sweep_seconds: float,
                   overlap: bool = True,
                   window_seconds: Optional[Sequence[Sequence[float]]] = None
                   ) -> HaloRoundModel:
    """Price a *finite* run of ``sweeps`` sweeps, round by round.

    :func:`model_round` amortises one steady-state round; this prices the
    executor's actual round schedule instead — the first round skips the
    exchange, the last round may be partial — so its ``per_sweep_seconds``
    (wall over ``sweeps``) matches :attr:`ShardedRunResult.elapsed_seconds`
    of a modelled run exactly when ``window_seconds`` comes from
    :func:`window_plan_seconds`.  Use it to predict the measured-optimal
    halo depth for a concrete iteration count.
    """
    require_positive_int(sweeps, "sweeps")
    k = partition.halo_depth
    if partition.n_shards <= 1:
        return _unsharded_model(k, sweep_seconds, sweeps)
    priced = _price_rounds(partition, spec, itemsize,
                           _depth_rounds(sweeps, k), {None: sweep_seconds},
                           overlap, window_seconds)
    wall = priced.wall
    return HaloRoundModel(
        halo_depth=k,
        round_seconds=wall,
        per_sweep_seconds=wall / sweeps,
        compute_seconds=priced.compute,
        halo_seconds=priced.halo * priced.exchanges,
        exposed_seconds=priced.exposed,
        halo_fraction=priced.exposed / wall if wall > 0 else 0.0,
        redundant_fraction=priced.redundant_fraction,
    )


class _ShardedRunner:
    """What the sharded runners share: the spec-or-count constructor, the
    cluster a run resolves to, and the round loop that runs and bills a
    schedule of rounds over one partition."""

    def __init__(self, spec: Union[MultiDeviceSpec, int],
                 shard_grid: Optional[Sequence[int]], cache,
                 max_workers: Optional[int], overlap: bool) -> None:
        if isinstance(spec, (int, np.integer)):
            # resolved against the compiled plan's device at execute time, so
            # an integer count clusters whatever device the workload targets
            self._device_count = int(spec)
            require_positive_int(self._device_count, "device count")
            self.spec: Optional[MultiDeviceSpec] = None
        else:
            require(isinstance(spec, MultiDeviceSpec),
                    f"spec must be a MultiDeviceSpec or a device count, "
                    f"got {type(spec).__name__}")
            self.spec = spec
            self._device_count = spec.device_count
        self.shard_grid = None if shard_grid is None else tuple(
            int(c) for c in shard_grid)
        self._shard_request = self.shard_grid if self.shard_grid is not None \
            else self._device_count
        self.cache = cache
        self.max_workers = max_workers
        self.overlap = bool(overlap)

    def _cluster(self, device) -> MultiDeviceSpec:
        if self.spec is not None:
            return self.spec
        return MultiDeviceSpec(device=device, device_count=self._device_count)

    def _fits(self, partition: GridPartition) -> GridPartition:
        require(partition.n_shards <= self._device_count,
                f"{partition.n_shards} shards need more than the "
                f"{self._device_count} available devices")
        return partition

    def _run(self, plans: Mapping[Optional[str], CompiledStencil],
             spec: MultiDeviceSpec, partition: GridPartition, grid: Grid,
             schedule: Sequence[Sequence[Tuple[Optional[str], ...]]], *,
             iterations: int, points: float,
             throughput: Callable[[float], Tuple[float, float]],
             overhead: Mapping[str, float],
             step_attrs: Optional[Mapping[str, object]] = None
             ) -> ShardedRunResult:
        """Run ``schedule`` on ``partition`` and bill it.

        ``plans`` maps each stage key to its compiled plan; a plain stencil
        is the single key ``None``, whose spans carry no stage names.
        ``schedule`` lists steps of rounds of stage keys.  Every round but
        the very first opens with one halo exchange, and sweep ``j`` of a
        span-``k`` round runs window ``mult = k-1-j``.  With ``step_attrs``
        each step is traced as a ``program_step`` span.  ``points`` is the
        run's useful stencil updates and ``throughput`` maps its modelled
        wall seconds to ``(GStencil/s, GFlops/s)``.
        """
        depth = partition.halo_depth
        radius = partition.radius
        n_shards = partition.n_shards
        named = None not in plans
        # One ambient-context check up front: round/exchange/sweep spans are
        # recorded on this (round-loop) thread, which carries the trace
        # context — the shard pool threads never need it.
        trace = current_span()
        tracer = trace.tracer if trace is not None else None

        from repro.service.cache import CompileCache

        cache = self.cache if self.cache is not None else CompileCache(
            capacity=max(8, n_shards * depth * len(plans)))
        compile_start = time.perf_counter()
        phases = {key: build_shard_phases(compiled, spec, partition,
                                          cache=cache,
                                          max_workers=self.max_workers)
                  for key, compiled in plans.items()}
        shard_compile_seconds = time.perf_counter() - compile_start
        if tracer is not None:
            tracer.record("shard_compile", compile_start,
                          compile_start + shard_compile_seconds, parent=trace,
                          shards=n_shards, halo_depth=depth,
                          **({"stages": len(plans)} if named else {}))

        itemsize = next(iter(plans.values())).plan.dtype.itemsize
        shard_halo_seconds = _shard_halo_seconds(partition, spec, itemsize)
        halo_seconds_per_exchange = max(shard_halo_seconds)
        interior_cells = [_interior_cells(partition, shard)
                          for shard in partition.shards]
        owned_cells = [math.prod(shard.out_shape)
                       for shard in partition.shards]

        # the initial halo ring is derived state under periodic/reflect —
        # fill it exactly like the single-device executor before extracting
        # the shard slabs; Dirichlet reads the grid as-is (extract and
        # assemble both copy, so no mutation escapes either way).  The
        # slabs stay resident for the whole run, across stages and steps
        if partition.boundary == "dirichlet":
            base = grid.data
        else:
            base = apply_boundary(grid.data.copy(), radius,
                                  partition.boundary)
        locals_ = partition.extract(base)
        shard_launches: List[List[LaunchResult]] = [[] for _ in locals_]
        wall = compute_crit = memory_crit = 0.0
        halo_bytes = halo_seconds = exposed_seconds = dram_bytes = 0.0
        exchange_count = 0
        redundant_cells = 0
        sweep_index = 0

        # one pool for the whole run — per-sweep pool churn would dominate
        # at small shard sizes
        workers = self.max_workers if self.max_workers is not None \
            else default_workers(n_shards)
        pool = ThreadPoolExecutor(max_workers=workers) \
            if workers > 1 and n_shards > 1 else None

        def sweep_all(row: List[_ShardPhase]) -> List[LaunchResult]:
            if pool is not None:
                return list(pool.map(
                    lambda pair: run_shard_phase(pair[0], pair[1], radius),
                    zip(row, locals_)))
            return [run_shard_phase(phase, local, radius)
                    for phase, local in zip(row, locals_)]

        try:
            first_round = True
            for step, rounds in enumerate(schedule):
                step_span = tracer.begin(
                    "program_step", parent=trace, step=step, **step_attrs,
                ) if tracer is not None and step_attrs is not None else None
                step_wall_before = wall
                for round_index, keys in enumerate(rounds):
                    span = len(keys)
                    after_exchange = False
                    round_span = None
                    round_wall_before = wall
                    if tracer is not None:
                        round_span = tracer.begin(
                            "round",
                            parent=step_span if step_span is not None
                            else trace,
                            round=round_index, sweeps_in_round=span,
                            **({"stages": list(keys)} if named else {}))
                    if not first_round:
                        # one exchange validates the whole round; nothing
                        # reads halos after the final sweep, so the last
                        # round's exchange is neither performed nor billed.
                        # A single shard still refreshes its local faces
                        # (reflect mirrors, periodic self-wraps) but
                        # crosses no link, so nothing is counted
                        exchange_start = time.perf_counter()
                        exchanged = partition.exchange_halos(locals_)
                        if n_shards > 1:
                            halo_bytes += exchanged * itemsize
                            halo_seconds += halo_seconds_per_exchange
                            exchange_count += 1
                            after_exchange = True
                            if tracer is not None:
                                tracer.record(
                                    "halo_exchange", exchange_start,
                                    time.perf_counter(), parent=round_span,
                                    device_seconds=halo_seconds_per_exchange,
                                    bytes=exchanged * itemsize,
                                    overlap=self.overlap)
                    for j, key in enumerate(keys):
                        mult = span - 1 - j
                        if j > 0:
                            # exchanged faces live off redundant compute
                            # inside a round, but reflect mirrors and
                            # periodic self-wraps are refreshed every sweep,
                            # like apply_boundary
                            partition.refresh_local_boundaries(locals_)
                        row = [shard_phases[mult]
                               for shard_phases in phases[key]]
                        sweep_start = time.perf_counter()
                        results = sweep_all(row)
                        sweep_end = time.perf_counter()
                        for launches, result in zip(shard_launches, results):
                            launches.append(result)
                        elapsed = [r.elapsed_seconds for r in results]
                        compute_crit += max(r.compute_seconds
                                            for r in results)
                        memory_crit += max(r.memory_seconds for r in results)
                        dram_bytes += sum(p.dram_bytes for p in row)
                        redundant_cells += sum(
                            p.out_cells - owned
                            for p, owned in zip(row, owned_cells)
                        ) * plans[key].temporal_fusion
                        if tracer is not None:
                            tracer.record(
                                "sweep", sweep_start, sweep_end,
                                parent=round_span,
                                device_seconds=max(elapsed),
                                sweep=sweep_index,
                                **({"stage": key} if named else {}),
                                window_mult=mult)
                        sweep_wall, exposure = _bill_sweep(
                            elapsed, [p.out_cells for p in row],
                            interior_cells, shard_halo_seconds,
                            after_exchange, self.overlap)
                        wall += sweep_wall
                        if after_exchange:
                            exposed_seconds += exposure
                            if tracer is not None:
                                # modelled quantity, not a measured interval
                                # — zero host wall, the exposed time rides
                                # in device_seconds
                                tracer.record(
                                    "overlap_exposed", sweep_end, sweep_end,
                                    parent=round_span,
                                    device_seconds=exposure,
                                    sweep=sweep_index, overlap=self.overlap)
                        after_exchange = False
                        sweep_index += 1
                    first_round = False
                    if round_span is not None:
                        round_span.add_device_seconds(wall - round_wall_before)
                        tracer.end(round_span)
                if step_span is not None:
                    step_span.add_device_seconds(wall - step_wall_before)
                    tracer.end(step_span)
        finally:
            if pool is not None:
                pool.shutdown()

        output = partition.assemble(locals_, base)
        # under periodic/reflect the single-device executor refreshes the
        # halo ring after the final sweep too; the fill is a pure function
        # of the interior, so applying it to the assembled output lands on
        # the bit-identical ring (no-op under Dirichlet)
        apply_boundary(output, radius, partition.boundary)

        shard_totals = [summarize_launches(launches)
                        for launches in shard_launches]
        all_launches = [r for launches in shard_launches for r in launches]
        overall = combine_utilization(
            [r.utilization for r in all_launches],
            [r.elapsed_seconds for r in all_launches])
        overhead = dict(overhead)
        overhead["shard_compile"] = shard_compile_seconds
        gstencil, gflops = throughput(wall)

        return ShardedRunResult(
            output=output,
            iterations=iterations,
            elapsed_seconds=wall,
            compute_seconds=compute_crit,
            memory_seconds=memory_crit,
            gstencil_per_second=gstencil,
            gflops_per_second=gflops,
            utilization=overall,
            overhead_seconds=overhead,
            sweeps=sweep_index,
            leftover_sweeps=0,
            points_updated=points,
            shard_grid=partition.shard_grid,
            shard_elapsed_seconds=tuple(t.elapsed_seconds
                                        for t in shard_totals),
            shard_utilization=tuple(t.utilization for t in shard_totals),
            halo_exchange_bytes=halo_bytes,
            halo_exchange_seconds=halo_seconds,
            halo_exposed_seconds=exposed_seconds,
            halo_exchange_count=exchange_count,
            halo_depth=depth,
            overlap=self.overlap,
            redundant_points_updated=float(redundant_cells),
            device_traffic_bytes=dram_bytes,
            device_count=spec.device_count,
        )


class ShardedExecutor(_ShardedRunner):
    """Run a compiled stencil sharded across ``spec.device_count`` devices.

    Parameters
    ----------
    spec:
        A :class:`repro.tcu.spec.MultiDeviceSpec`, or an integer device count
        (N simulated A100s on NVLink).
    shard_grid:
        Shards per grid axis.  Defaults to one shard per device, factored
        over the axes by :func:`repro.stencils.partition.plan_shard_grid`
        (the surface-minimising heuristic — 4 devices on a square grid
        become a 2x2 shard grid).
    cache:
        Optional :class:`repro.service.CompileCache` for the per-shard plans.
        A private cache is created when omitted, so equal-shaped shards still
        compile once per run.
    max_workers:
        Thread-pool width for concurrent shard sweeps.
    halo_depth:
        Requested communication-avoiding depth ``k`` (exchange once per
        ``k`` sweeps).  Clamped to what the geometry supports
        (:meth:`repro.stencils.partition.GridPartition.max_halo_depth`),
        so an infeasible request degrades to shallower halos rather than
        failing.
    overlap:
        Model compute/comm overlap (``max(interior, exchange) + rim`` per
        post-exchange sweep).  Disable for the classic serialised timeline.
    """

    def __init__(self, spec: Union[MultiDeviceSpec, int] = 2,
                 shard_grid: Optional[Sequence[int]] = None,
                 cache=None, max_workers: Optional[int] = None,
                 halo_depth: int = 1, overlap: bool = True) -> None:
        super().__init__(spec, shard_grid, cache, max_workers, overlap)
        require_positive_int(halo_depth, "halo_depth")
        self.halo_depth = int(halo_depth)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def resolve_spec(self, compiled: CompiledStencil) -> MultiDeviceSpec:
        """The cluster this run executes on: the configured
        :class:`MultiDeviceSpec`, or — when the executor was built from a
        bare device count — N copies of the *compiled plan's* device."""
        return self._cluster(compiled.spec)

    def partition(self, compiled: CompiledStencil) -> GridPartition:
        """Tile the compiled grid, aligned to the plan's layout tiles.

        The requested ``halo_depth`` is clamped to the deepest the geometry
        supports (shards must own their deep ghost width; periodic wrap
        images must stay tile-congruent)."""
        config = compiled.plan.config
        pattern = compiled.pattern
        require(_standard_layout(compiled),
                f"layout config {config.r} is not expressible as (r1, r2) — "
                f"sharded execution supports the standard morph layouts only")
        depth = min(self.halo_depth, GridPartition.max_halo_depth(
            compiled.grid_shape, pattern.radius, self._shard_request,
            align=config.r, boundary=compiled.boundary))
        return self._fits(GridPartition.build(
            compiled.grid_shape, pattern.radius, self._shard_request,
            align=config.r, boundary=compiled.boundary, halo_depth=depth))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, compiled: CompiledStencil, grid: Grid,
                iterations: int) -> ShardedRunResult:
        require_positive_int(iterations, "iterations")
        require(tuple(grid.shape) == compiled.grid_shape,
                f"grid shape {tuple(grid.shape)} does not match the compiled "
                f"shape {compiled.grid_shape}")
        require(grid.boundary == compiled.boundary,
                f"grid boundary {grid.boundary!r} does not match the "
                f"compiled boundary {compiled.boundary!r} — recompile for "
                f"this grid")
        sweeps, leftover = fused_iterations(iterations,
                                            compiled.temporal_fusion)
        require(leftover == 0,
                f"sharded execution requires iterations divisible by the "
                f"temporal fusion factor {compiled.temporal_fusion} "
                f"(got {iterations}); run the leftover sweeps on the "
                f"single-device executor")
        spec = self.resolve_spec(compiled)
        partition = self.partition(compiled)
        points = original_points(compiled, sweeps, 0)
        return self._run(
            {None: compiled}, spec, partition, grid,
            [_depth_rounds(sweeps, partition.halo_depth)],
            iterations=iterations, points=points,
            throughput=functools.partial(throughput_metrics, compiled,
                                         points),
            overhead=compiled.overhead_seconds)
