"""served-skewed: an open loop of small numpy requests through the server.

Requests are due at a fixed rate, evenly spaced (independent users: the
generator never waits for replies), and go through
``StencilServer.submit_problem``.  Fingerprint popularity follows a Zipf law
over sixteen (kernel, shape) pairs; the four least popular first appear
part-way through the run, so their first request compiles on the serving
path.  Latency is timed from each request's due time, which charges a stall
to every request queued behind it, and the generator's own lateness is
reported to show the load was really offered.

The queue, coalescer, scheduler routing and the cache hit/miss mix do the
work here; every other workload leaves the ``server`` module idle.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Tuple

import numpy as np

from perfbench import common, harness, layers, oracles

NAME = "served-skewed"
#: Offered load.  The open-loop capacity of this request mix on a 2-core
#: host is about 850 requests/s; at 400/s (about half) a host slowdown of
#: 20-30% already pushes the server to the knee and p90 swings by half from
#: run to run, so the rate sits at about 0.3 of capacity.
RATE_PER_S = 250.0
#: The p90 latency limit of the service-level objective.
LATENCY_LIMIT_S = 0.025
DEVICES = 2
WORKERS = 2
ITERATIONS = 4
ZIPF_EXPONENT = 1.1
KERNELS = (
    "heat_diffusion/heat-2d",
    "pde_solvers/box-2d9p",
    "image_ml/sobel-2d",
    "fluid_dynamics/vorticity-2d",
    "image_ml/sharpen-2d",
    "lattice_boltzmann/lbm-d2q9",
    "electromagnetics/fdtd-curl-2d",
    "pde_solvers/poisson-jacobi-2d",
)
SHAPES = ((48, 48), (64, 64))
#: The least popular fingerprints, first requested at these fractions of
#: the run instead of being warmed in set-up.
LATE_DEBUTS = (0.2, 0.4, 0.6, 0.8)
POLICY = {"backend": "numpy"}
OP_ROOT = "request"
#: The traced run times the fingerprint and a routing decision on every
#: this-many-th request only, so that its extra work leaves the load intact.
SAMPLE_EVERY = 25


@dataclass
class Inputs:
    cases: List[common.Case]        # by popularity rank
    late: Dict[int, float]          # rank -> debut fraction
    seed: int


@dataclass
class State:
    inputs: Inputs
    session: Any
    server: Any

    @property
    def cases(self) -> List[common.Case]:
        return self.inputs.cases

    def close(self) -> None:
        self.session.close()


def inputs(seed: int) -> Tuple[Inputs, Dict[str, Any]]:
    from repro import Problem, full_catalog, make_grid

    by_name = {pattern.name: pattern for pattern in full_catalog()}
    # popularity ranks interleave the shapes over the kernel list: fixed, so
    # every seed offers the same mix; only grid data and draws vary
    pairs = [(name, shape) for shape in SHAPES for name in KERNELS]
    cases = []
    for rank, (name, shape) in enumerate(pairs):
        pattern = by_name[name]
        grid = make_grid(shape, kind="random", seed=seed * 100 + rank)
        problem = Problem(pattern, grid, ITERATIONS, options=dict(POLICY))
        cases.append(common.Case(
            label=f"{name}@{shape[0]}x{shape[1]}", problem=problem,
            policy={}, cells=common.cells(pattern, shape, ITERATIONS),
            reference=common.golden(problem), check=oracles.check_fp64))
    late = {len(cases) - len(LATE_DEBUTS) + i: fraction
            for i, fraction in enumerate(LATE_DEBUTS)}
    return Inputs(cases=cases, late=late, seed=seed), {
        "operation": "StencilServer.submit_problem(problem) from an open "
                     "loop; latency from the due time",
        "rate_per_s": RATE_PER_S,
        "arrivals": "evenly spaced",
        "latency_limit_p90_s": LATENCY_LIMIT_S,
        "zipf_exponent": ZIPF_EXPONENT,
        "iterations": ITERATIONS,
        "fingerprints_by_rank": [case.label for case in cases],
        "late_debut_fraction_by_rank": late,
        "server": {"devices": DEVICES, "max_workers": WORKERS}}


def schedule(inputs: Inputs, seconds: float, salt: int = 0
             ) -> List[Tuple[float, int]]:
    """``(due offset, rank)`` of every request in a window of ``seconds``:
    evenly spaced at :data:`RATE_PER_S`, ranks drawn from the Zipf law."""
    rng = np.random.default_rng([inputs.seed, salt])
    count = int(round(RATE_PER_S * seconds))
    offsets = np.arange(1, count + 1) / RATE_PER_S
    weights = 1.0 / np.arange(1, len(inputs.cases) + 1) ** ZIPF_EXPONENT
    ranks = rng.choice(len(inputs.cases), size=count, p=weights / weights.sum())
    debut = {rank: int(fraction * count) for rank, fraction
             in inputs.late.items()}
    for rank, index in debut.items():
        ranks[index] = rank
    for i, rank in enumerate(ranks):
        if rank in debut and i < debut[rank]:
            ranks[i] = 0
    return list(zip(offsets.tolist(), ranks.tolist()))


def _warm(inputs: Inputs, session: Any) -> State:
    """Serve every fingerprint except the late ones once, one at a time so
    the queue's peak depth is left to the measured window."""
    server = session.server()
    for rank, case in enumerate(inputs.cases):
        if rank not in inputs.late:
            server.submit_problem(case.problem).result(timeout=60)
    return State(inputs=inputs, session=session, server=server)


def setup(inputs: Inputs) -> State:
    """A fresh session and server, with every fingerprint except the late
    ones compiled and served once."""
    from repro import StencilSession

    return _warm(inputs, StencilSession(devices=DEVICES, max_workers=WORKERS))


def open_loop(state: State, seconds: float, salt: int,
              before_submit=None) -> harness.Window:
    """Offer the seeded schedule; returns the window with due-time
    latencies (failures count as SLO misses) and server-side figures."""
    from repro.server.queue import ServerError

    plan = schedule(state.inputs, seconds, salt)
    cases = state.cases
    window = harness.Window()
    lateness: List[float] = []
    pending: Deque[Tuple[float, float, Any, common.Case]] = deque()
    served: List[Tuple[float, float, int]] = []
    start = time.perf_counter() + 0.01
    last_completion = [start]

    def collect(block: bool) -> None:
        """Settle finished requests in submission order (all of them when
        ``block``), keeping only their numbers so memory stays flat."""
        while pending and (block or pending[0][2].done()):
            due, returned, handle, case = pending.popleft()
            try:
                result = handle.result(timeout=60)
            except Exception as exc:  # lint: allow-broad-except — counted failure
                window.record_failure(
                    f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            problem = case.verify(result.output)
            if problem is not None:
                window.record_failure(f"{case.label}: {problem}")
                continue
            completion = returned + result.service_seconds
            last_completion[0] = max(last_completion[0], completion)
            window.record_success(case.label, completion - due, result.run)
            served.append((result.queue_wait_seconds,
                           result.service_seconds - result.queue_wait_seconds,
                           result.batch_size))

    for index, (offset, rank) in enumerate(plan):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        case = cases[rank]
        if before_submit is not None:
            before_submit(index, case)
        lateness.append(time.perf_counter() - due)
        window.attempted += 1
        try:
            handle = state.server.submit_problem(case.problem)
        except ServerError as exc:
            window.record_failure(f"{case.label}: refused: {exc}")
            continue
        pending.append((due, time.perf_counter(), handle, case))
        collect(block=False)
    collect(block=True)
    window.elapsed = last_completion[0] - start

    misses = window.failed + sum(1 for latency in window.latencies
                                 if latency > LATENCY_LIMIT_S)
    queue_waits = [wait for wait, _, _ in served]
    executes = [execute for _, execute, _ in served]
    window.extras.update({
        "modelled_gstencil_per_s": common.modelled_gstencil_per_s(
            [window.first[case.label] for case in cases
             if case.label in window.first]),
        "cell_updates": common.cell_updates(window, cases),
        "slo_miss_rate": misses / max(1, window.attempted),
        "loadgen.late_p90_s": harness.percentile(lateness, 0.9),
        "server.queue_wait_s.p50": harness.percentile(queue_waits, 0.5),
        "server.queue_wait_s.p90": harness.percentile(queue_waits, 0.9),
        "server.execute_s.p50": harness.percentile(executes, 0.5),
        "server.coalesce_ratio": float(np.mean(
            [size for _, _, size in served])),
    })
    return window


def measure(state: State, seconds: float) -> harness.Window:
    cache = state.session.cache
    telemetry = state.server.metrics()
    lookups = cache.snapshot_stats()
    window = open_loop(state, seconds, salt=0)
    after = state.server.metrics()
    window.extras["server.rejected"] = float(
        after["rejected"]["total"] - telemetry["rejected"]["total"])
    window.extras["server.queue.peak_depth"] = float(
        after["queue"]["peak_depth"])
    window.extras.update(common.cache_values(
        cache, lookups, len(window.latencies)))
    return window


def traced(state: State, seconds: float, tracer: Any
           ) -> Tuple[harness.Window, Dict[str, float]]:
    """A fresh traced session and server, warmed like set-up: every request
    opens a ``request`` span and the server records ``queue_wait``,
    ``coalesce``, ``cache.lookup``, ``route`` and engine ``sweep`` spans
    under it.  On every :data:`SAMPLE_EVERY`-th request the generator also
    times the fingerprint and, once the plan is cached (so the late
    fingerprints still compile on the serving path), a
    ``StencilSession.decide``; sampling keeps the offered load unchanged."""
    from repro import StencilSession

    session = StencilSession(devices=DEVICES, max_workers=WORKERS,
                             tracer=tracer)
    try:
        traced_state = _warm(state.inputs, session)
        tracer.clear()

        def before_submit(index, case):
            if index % SAMPLE_EVERY:
                return
            with tracer.span("fingerprint"):
                request = case.problem.compile_request()
                request.fingerprint
            if session.cache.contains(request):
                with tracer.span("scheduler.decide"):
                    session.decide(case.problem)

        window = open_loop(traced_state, seconds, salt=1,
                           before_submit=before_submit)
    finally:
        session.close()
    ops = max(1, len(window.latencies))
    spans = tracer.spans()
    profile = layers.layer_profile(spans)
    values = common.session_layer_values(spans, ops)
    values["engine.numpy_sweep.busy_s"] = layers.self_seconds(
        profile, "sweep") / ops
    # the generator-side spans are sampled: report them per sampled call
    for metric, name in (("fingerprint.busy_s", "fingerprint"),
                         ("scheduler.decide.busy_s", "scheduler.decide")):
        calls = layers.span_count(profile, name)
        values[metric] = (layers.self_seconds(profile, name) / calls
                          if calls else 0.0)
    return window, values
