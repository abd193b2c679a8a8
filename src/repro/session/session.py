"""The :class:`StencilSession` facade: one typed front door over every engine.

A session owns the resources every execution mode shares — the compile
cache, the device pool (and its occupancy-aware scheduler), the executor
registry and, lazily, an online :class:`~repro.server.facade.StencilServer`
— and exposes one call::

    with StencilSession(devices=4) as session:
        solution = session.solve(Problem(pattern, grid, iterations=8))
        print(solution.provenance.executor, solution.gstencil_per_second)

``SolvePolicy(mode="auto")`` (the default) routes through the existing
perf/partition model: latency-bound problems stay on one device, large grids
shard across the pool, and the decision is recorded in
:attr:`Solution.provenance`.  Explicit modes (``single``, ``sharded``,
``served``, ``baseline:<name>``) pin the engine instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.server.scheduler import DevicePoolScheduler, RoutingDecision
from repro.service.cache import CompileCache
from repro.session.problem import Problem, Provenance, Solution, SolvePolicy
from repro.session.registry import (
    BaselineSessionExecutor,
    ExecutorRegistry,
    default_registry,
)
from repro.tcu.spec import MultiDeviceSpec
from repro.util.validation import require

__all__ = [
    "SessionConfig",
    "StencilSession",
    "default_session",
    "reset_default_session",
]

#: Sentinel distinguishing "use the session cache" from an explicit ``None``
#: (= no shared cache for this call).
_UNSET: Any = object()


@dataclass
class SessionConfig:
    """Everything a :class:`StencilSession` is constructed from.

    Attributes
    ----------
    devices:
        The device pool: a :class:`repro.tcu.spec.MultiDeviceSpec` or a bare
        device count (N simulated A100s on NVLink).
    cache / cache_capacity / persist_dir:
        An injected :class:`~repro.service.cache.CompileCache`, or the
        capacity (and optional persistence directory) of the session-owned
        one built when none is injected.
    min_speedup / max_halo_fraction / halo_depth / overlap:
        The ``auto``-routing thresholds and communication-avoiding knobs
        (see :class:`~repro.server.scheduler.DevicePoolScheduler`);
        ``halo_depth=None`` lets the scheduler search for the cheapest
        modelled depth per routing decision.
    max_workers:
        Default thread-pool width for sharded sweeps and batched compiles.
    queue_bound / window_seconds / max_batch_size / default_deadline_seconds:
        Served-mode tunables, applied when the session materialises its
        online server.
    telemetry:
        Optional sink called with one flat dict per completed solve /
        batch — the session-level analogue of
        :class:`~repro.server.telemetry.ServerTelemetry`.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When enabled, every solve
        opens a root span, the executors/cache/engines attach their spans
        under it, and :attr:`Solution.provenance.trace_id` records which
        trace the answer belongs to.  Defaults to the shared disabled
        tracer (:data:`repro.obs.NULL_TRACER`), a zero-overhead no-op.
    """

    devices: Union[MultiDeviceSpec, int] = 1
    cache: Optional[CompileCache] = None
    cache_capacity: int = 128
    persist_dir: Optional[str] = None
    min_speedup: float = 1.25
    max_halo_fraction: float = 0.25
    halo_depth: Optional[int] = None
    overlap: bool = True
    max_workers: Optional[int] = None
    queue_bound: int = 128
    window_seconds: float = 0.002
    max_batch_size: int = 16
    default_deadline_seconds: Optional[float] = None
    telemetry: Optional[Callable[[Dict[str, Any]], None]] = None
    tracer: Optional[Tracer] = None


class StencilSession:
    """Typed ``Problem -> Solution`` front door over every execution engine.

    Parameters
    ----------
    config:
        A :class:`SessionConfig`; keyword overrides may be passed directly
        (``StencilSession(devices=4)``) or on top of a config.
    registry:
        Optional :class:`~repro.session.registry.ExecutorRegistry`; defaults
        to the built-in single/sharded/served (+ dynamic baseline) table.
    """

    def __init__(self, config: Optional[SessionConfig] = None, *,
                 registry: Optional[ExecutorRegistry] = None,
                 **overrides: Any) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config

        pool = config.devices
        if isinstance(pool, (int, np.integer)):
            pool = MultiDeviceSpec(device_count=int(pool))
        require(isinstance(pool, MultiDeviceSpec),
                f"devices must be a MultiDeviceSpec or a device count, "
                f"got {type(config.devices).__name__}")
        self.pool = pool

        self.cache = config.cache if config.cache is not None else CompileCache(
            capacity=config.cache_capacity, persist_dir=config.persist_dir)
        self.scheduler = DevicePoolScheduler(
            pool, min_speedup=config.min_speedup,
            max_halo_fraction=config.max_halo_fraction,
            halo_depth=config.halo_depth, overlap=config.overlap)
        self.registry = registry if registry is not None else default_registry()
        self.tracer = config.tracer if config.tracer is not None \
            else NULL_TRACER

        self._server: Optional[Any] = None
        self._server_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the front door
    # ------------------------------------------------------------------ #
    def solve(self, problem: Problem, policy: Optional[SolvePolicy] = None, *,
              cache: Any = _UNSET, **policy_overrides: Any) -> Solution:
        """Solve one problem under a policy; returns a :class:`Solution`.

        ``policy`` may be omitted and built from keyword overrides
        (``session.solve(problem, mode="sharded", devices=2)``).  ``cache``
        overrides the session cache for this call only — ``None`` disables
        caching entirely.  ``mode="served"`` always
        executes through the session cache (the server compiled into it)
        and rejects per-call cache overrides.
        """
        require(isinstance(problem, Problem),
                f"solve() takes a Problem, got {type(problem).__name__}")
        if policy is None:
            policy = SolvePolicy(**policy_overrides)
        elif policy_overrides:
            policy = replace(policy, **policy_overrides)
        problem = self._apply_backend_policy(problem, policy)
        call_cache = self.cache if cache is _UNSET else cache

        # Root span of the request: everything below — routing, compiles,
        # queueing, engine sweeps — attaches under it through the ambient
        # context, and the trace id is stamped into the provenance so the
        # answer stays auditable back to its spans.
        with self.tracer.span(
                "solve",
                pattern=(f"program:{problem.program.name}"
                         if problem.is_program else problem.pattern.name),
                grid_shape=problem.grid_shape,
                iterations=problem.iterations,
                mode_requested=policy.mode, tag=problem.tag) as root_span:
            mode_requested = policy.mode
            compiled = None
            compile_request = None
            reason = ""
            mode = policy.mode
            if problem.is_program:
                # program problems always route through the program
                # executor, which resolves auto/single/sharded itself
                mode = "program"
            elif mode == "auto":
                compile_request = problem.compile_request()
                compiled = call_cache.get_or_compile(compile_request) \
                    if call_cache is not None else compile_request.compile()
                decision = self.decide(problem, compiled=compiled)
                mode = decision.executor
                reason = decision.reason
                if decision.sharded:
                    if policy.devices is None:
                        policy = replace(
                            policy, devices=self.scheduler.spec_for(
                                decision, compiled))
                    if policy.halo_depth is None:
                        # run at the depth the routing model priced
                        policy = replace(policy,
                                         halo_depth=decision.halo_depth,
                                         overlap=decision.overlap)

            executor = self.registry.create(mode)
            solution = executor.solve(
                self, problem, policy, cache=call_cache, compiled=compiled,
                compile_request=compile_request,
                mode_requested=mode_requested, reason=reason)
            root_span.set(executor=solution.provenance.executor,
                          devices=solution.provenance.devices,
                          reason=solution.provenance.reason)
            root_span.add_device_seconds(solution.result.elapsed_seconds)
            if root_span.trace_id:
                solution = replace(
                    solution,
                    provenance=replace(solution.provenance,
                                       trace_id=root_span.trace_id))
        self._emit({"event": "solve", **solution.summary()})
        return solution

    def solve_batch(self, problems: Sequence[Problem], *,
                    cache: Any = _UNSET,
                    max_workers: Optional[int] = None,
                    compile_requests: Optional[Sequence[Any]] = None) -> Any:
        """Solve a heterogeneous batch: compile each distinct plan once,
        sweep every problem (see :class:`repro.service.BatchReport`).

        ``cache=None`` compiles through a private per-batch cache; by
        default the session cache is shared.
        """
        with self.tracer.span("solve_batch", requests=len(problems)):
            report = self.execute_batch(problems, cache=cache,
                                        max_workers=max_workers,
                                        compile_requests=compile_requests)
        self._emit({"event": "solve_batch", **report.summary()})
        return report

    def run(self, compiled: Any, grid: Any, iterations: int, *,
            cache: Any = _UNSET, tag: Optional[str] = None) -> Solution:
        """Execute an already-compiled plan on one device.

        The precompiled analogue of ``solve(mode="single")``.  The original
        compile request is unknown here, so :attr:`Solution.fingerprint` is
        empty.
        """
        with self.tracer.span("run", iterations=iterations,
                              tag=tag) as root_span:
            result = self.execute_plan(compiled, grid, iterations,
                                       cache=cache)
            root_span.add_device_seconds(result.elapsed_seconds)
            trace_id = root_span.trace_id
        if tag is not None:
            result = replace(result, tag=tag)
        solution = Solution(
            result=result,
            compiled=compiled,
            fingerprint="",
            provenance=Provenance(
                mode_requested="single",
                executor="single",
                engine=compiled.engine,
                devices=1,
                reason="precompiled plan executed directly",
                boundary=compiled.boundary,
                backend=compiled.backend,
                trace_id=trace_id),
            tag=tag)
        self._emit({"event": "run", **solution.summary()})
        return solution

    def solve_baseline(self, problem: Problem, baseline: Any) -> Solution:
        """Run a comparator instance (or registry key) on ``problem`` —
        the hook :func:`repro.analysis.compare_methods` routes through."""
        executor = BaselineSessionExecutor(baseline)
        solution = executor.solve(
            self, problem, SolvePolicy(mode=executor.name), cache=self.cache)
        self._emit({"event": "solve", **solution.summary()})
        return solution

    @staticmethod
    def _apply_backend_policy(problem: Problem, policy: SolvePolicy) -> Problem:
        """Fold ``policy.backend`` into the problem's compile options.

        The backend joins the compile fingerprint, so it must reach the
        options *before* any compile/cache lookup.  An explicit option that
        disagrees with the policy is an error — two layers silently
        disagreeing about numerics must not pick a winner.
        """
        if policy.backend is None:
            return problem
        existing = problem.options.get("backend")
        require(existing is None or existing == policy.backend,
                f"options backend {existing!r} conflicts with the policy "
                f"backend {policy.backend!r}")
        if existing == policy.backend:
            return problem
        rebound = Problem(problem.pattern, problem.grid, problem.iterations,
                          options=dict(problem.options), tag=problem.tag,
                          program=problem.program)
        rebound.options["backend"] = policy.backend
        return rebound

    # ------------------------------------------------------------------ #
    # routing / resources
    # ------------------------------------------------------------------ #
    def decide(self, problem: Problem, *,
               compiled: Any = None) -> RoutingDecision:
        """The ``auto``-mode routing decision for ``problem`` against the
        full pool (direct solves do not lease devices; the served path
        decides against live occupancy instead)."""
        if compiled is None:
            compiled = self.compile(problem)
        if problem.is_program:
            return self.scheduler.decide_program(
                compiled, problem.iterations,
                free_devices=self.pool.device_count)
        return self.scheduler.decide(compiled, problem.iterations,
                                     free_devices=self.pool.device_count)

    def check(self, problem: Problem, policy: Optional[SolvePolicy] = None,
              **policy_overrides: Any) -> Any:
        """Pre-flight ``problem`` without sweeping: the Tier-1 diagnostics.

        Runs the :mod:`repro.lint` domain analyzers against this session's
        scheduler and compile cache and returns a
        :class:`~repro.lint.DiagnosticReport`.  The report never executes a
        sweep — the one compile it may trigger goes through the session
        cache, so a subsequent :meth:`solve` reuses it for free.  Accepts
        the same policy spelling as :meth:`solve`
        (``session.check(problem, mode="sharded", devices=4)``).
        """
        from repro.lint.domain import check_problem

        require(isinstance(problem, Problem),
                f"check() takes a Problem, got {type(problem).__name__}")
        if policy is None:
            policy = SolvePolicy(**policy_overrides)
        elif policy_overrides:
            policy = replace(policy, **policy_overrides)
        return check_problem(problem, policy,
                             scheduler=self.scheduler, cache=self.cache,
                             devices=self.pool.device_count)

    def compile(self, problem: Problem) -> Any:
        """Compile (or fetch) the plan for ``problem`` through the cache.

        Program problems compile stage by stage into a
        :class:`~repro.programs.ProgramPlan`; plain pattern problems into a
        :class:`~repro.core.pipeline.CompiledStencil`.
        """
        if problem.is_program:
            from repro.programs import compile_program

            return compile_program(problem.program, problem.grid, self.cache,
                                   options=dict(problem.options))
        return self.cache.get_or_compile(problem.compile_request())

    def server(self, *, window_seconds: Optional[float] = None,
               max_batch_size: Optional[int] = None) -> Any:
        """The session's online server, materialised on first use.

        The batching hints apply only at creation — a live coalescer is not
        reconfigured per request.
        """
        with self._server_lock:
            if self._server is None:
                from repro.server.facade import ServerConfig, StencilServer

                config = self.config
                server_config = ServerConfig(
                    queue_bound=config.queue_bound,
                    window_seconds=window_seconds if window_seconds is not None
                    else config.window_seconds,
                    max_batch_size=max_batch_size if max_batch_size is not None
                    else config.max_batch_size,
                    max_workers=config.max_workers,
                    default_deadline_seconds=config.default_deadline_seconds,
                    min_speedup=config.min_speedup,
                    max_halo_fraction=config.max_halo_fraction,
                    halo_depth=config.halo_depth,
                    overlap=config.overlap,
                    cache_capacity=config.cache_capacity)
                self._server = StencilServer(session=self,
                                             config=server_config)
            return self._server

    # ------------------------------------------------------------------ #
    # engine plumbing shared with the server facade
    # ------------------------------------------------------------------ #
    def execute_batch(self, problems: Sequence[Problem], *,
                      cache: Any = _UNSET,
                      max_workers: Optional[int] = None,
                      compile_requests: Optional[Sequence[Any]] = None) -> Any:
        """:meth:`solve_batch` without the session telemetry event — the
        server's micro-batches land here, so their requests are counted by
        the *server's* telemetry only (a served solve otherwise double-emits
        at the session level, and only on single-device routes)."""
        from repro.service.batch import execute_batch

        return execute_batch(
            problems,
            cache=self.cache if cache is _UNSET else cache,
            max_workers=max_workers if max_workers is not None
            else self.config.max_workers,
            compile_requests=compile_requests)

    def execute_plan(self, compiled: Any, grid: Any, iterations: int, *,
                     cache: Any = _UNSET) -> Any:
        """Single-device engine call on a precompiled plan (no Solution
        wrapping) — the micro-batch path of the server funnels through
        this, so served and direct execution share one code path."""
        from repro.engine.single import SingleDeviceExecutor

        call_cache = self.cache if cache is _UNSET else cache
        return SingleDeviceExecutor(cache=call_cache).execute(
            compiled, grid, iterations)

    def execute_sharded_plan(self, compiled: Any, grid: Any, iterations: int,
                             *, devices: Any, cache: Any = _UNSET,
                             halo_depth: int = 1,
                             overlap: bool = True) -> Any:
        """Sharded engine call on a precompiled plan (no Solution wrapping)."""
        from repro.engine.sharded import ShardedExecutor

        call_cache = self.cache if cache is _UNSET else cache
        executor = ShardedExecutor(devices, cache=call_cache,
                                   max_workers=self.config.max_workers,
                                   halo_depth=halo_depth, overlap=overlap)
        return executor.execute(compiled, grid, iterations)

    # ------------------------------------------------------------------ #
    # lifecycle / observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """Cache, pool and (when materialised) server metrics."""
        with self._server_lock:
            server = self._server
        return {
            "cache": self.cache.snapshot_stats().as_dict(),
            "devices": {"device_count": self.pool.device_count,
                        "pool": self.pool.name},
            "server": server.metrics() if server is not None else None,
        }

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The process-wide unified registry (every cache/ledger/server
        telemetry instance re-registers into it); one
        :meth:`~repro.obs.MetricsRegistry.snapshot` covers the system."""
        return global_registry()

    def close(self) -> None:
        """Shut down the session's server (if one was materialised).
        Idempotent; the cache outlives the session on purpose."""
        with self._server_lock:
            server, self._server = self._server, None
        if server is not None:
            server.shutdown()

    def __enter__(self) -> "StencilSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _emit(self, event: Dict[str, Any]) -> None:
        sink = self.config.telemetry
        if sink is not None:
            sink(event)


# ---------------------------------------------------------------------- #
# the default session
# ---------------------------------------------------------------------- #
_DEFAULT_SESSION: Optional[StencilSession] = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> StencilSession:
    """The process-wide session for callers that do not own one.

    Single-device pool and a standard cache; created on first use.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = StencilSession()
        return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Drop (and close) the default session — test isolation hook."""
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        session, _DEFAULT_SESSION = _DEFAULT_SESSION, None
    if session is not None:
        session.close()
