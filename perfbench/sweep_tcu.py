"""sweep-tcu: warm single-device tcu-sim solves of the Table-2 kernels.

Each operation is one ``StencilSession.solve`` of one of the eight
``table2_benchmarks()`` kernels at its ``sim_grid`` with seeded grid data.
Every compile happens in set-up, so the engine steps (LUT gather and PIT
permute, the simulated sparse MMA, assemble) and the ``tcu`` model do the
work.  Outputs must stay within the fp16 tolerance of the Table-2 tests
against ``run_stencil_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from perfbench import common, harness, layers, oracles

NAME = "sweep-tcu"
#: the traced run also times the golden reference on these problems
REFERENCE_BASELINE = True
POLICY = {"mode": "single", "backend": "tcu-sim"}


@dataclass
class State:
    cases: List[common.Case]
    session: Any

    def close(self) -> None:
        self.session.close()


def inputs(seed: int) -> Tuple[List[common.Case], Dict[str, Any]]:
    from repro import Problem, make_grid, table2_benchmarks

    cases = []
    for index, config in enumerate(table2_benchmarks()):
        grid = make_grid(config.sim_grid, kind="random", seed=seed * 100 + index)
        problem = Problem(config.pattern, grid, config.sim_iterations,
                          options={"block_hint": config.block})
        cases.append(common.Case(
            label=config.name, problem=problem, policy=POLICY,
            cells=common.cells(config.pattern, config.sim_grid,
                               config.sim_iterations),
            reference=common.golden(problem),
            check=oracles.check_fp16))
    return cases, {
        "operation": "StencilSession.solve(problem, mode='single', "
                     "backend='tcu-sim')",
        "cases": [{"kernel": case.label,
                   "shape": list(case.problem.grid_shape),
                   "iterations": case.problem.iterations}
                  for case in cases]}


def setup(cases: List[common.Case]) -> State:
    """A fresh session with every plan compiled and one warm solve each."""
    from repro import StencilSession

    session = StencilSession()
    for case in cases:
        session.compile(case.problem)
        session.solve(case.problem, **case.policy)
    return State(cases=cases, session=session)


def _entry(state: State, case: common.Case):
    return (case.label,
            lambda: state.session.solve(case.problem, **case.policy),
            lambda solution: case.verify(solution.output))


def _finish(window: harness.Window, state: State) -> harness.Window:
    window.extras["modelled_gstencil_per_s"] = common.modelled_gstencil_per_s(
        [solution.result for solution in window.first.values()])
    window.extras["cell_updates"] = common.cell_updates(window, state.cases)
    return window


def measure(state: State, seconds: float) -> harness.Window:
    return _finish(harness.closed_loop(
        [_entry(state, case) for case in state.cases], seconds), state)


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #
def stepped_sweeps(compiled: Any, grid: Any, iterations: int, tracer: Any
                   ) -> Tuple[Any, List[Any]]:
    """The single-device sweep loop through the public step API, one span
    per step; returns the output and the launch results."""
    from repro.engine import assemble_step, gather_step, mma_step, \
        prepare_sweep
    from repro.stencils.boundary import apply_boundary

    if compiled.temporal_fusion != 1:
        raise ValueError("the stepped replay covers unfused plans only")
    current = grid.data.copy()
    launches = []
    with tracer.span("engine.prepare"):
        context = prepare_sweep(compiled)
    with tracer.span("engine.boundary"):
        apply_boundary(current, context.radius, compiled.boundary)
    for _ in range(iterations):
        with tracer.span("engine.gather"):
            b_operand = gather_step(context, current)
        with tracer.span("engine.mma"):
            launch = mma_step(context, b_operand)
        with tracer.span("engine.assemble"):
            assemble_step(context, launch, current)
        with tracer.span("engine.boundary"):
            apply_boundary(current, context.radius, compiled.boundary)
        launches.append(launch)
    return current, launches


ENGINE_STEPS = ("gather", "mma", "assemble", "boundary")


def traced(state: State, seconds: float, tracer: Any
           ) -> Tuple[harness.Window, Dict[str, float]]:
    """Each operation: the fingerprint, the real traced ``session.solve``,
    then the same sweeps stepped one span per step, which must match the
    solve bit for bit."""
    from repro import StencilSession

    session = StencilSession(cache=state.session.cache, tracer=tracer)
    before = session.cache.snapshot_stats()

    def entry(case):
        def run():
            with tracer.span("fingerprint"):
                case.problem.compile_request().fingerprint
            solution = session.solve(case.problem, **case.policy)
            stepped, launches = stepped_sweeps(
                solution.compiled, case.problem.grid,
                case.problem.iterations, tracer)
            return solution, stepped, launches

        def check(result):
            solution, stepped, _ = result
            return (oracles.check_identical(stepped, solution.output)
                    or case.verify(solution.output))

        return case.label, run, check

    window = harness.closed_loop(
        [entry(case) for case in state.cases], seconds,
        around=lambda label: tracer.span(layers.OP_SPAN, case=label))
    ops = len(window.latencies)
    spans = tracer.spans()
    profile = layers.layer_profile(spans)
    values = common.session_layer_values(spans, ops)
    values.update(common.cache_values(session.cache, before, ops))
    for step in ENGINE_STEPS:
        values[f"engine.{step}.busy_s"] = layers.self_seconds(
            profile, f"engine.{step}") / max(1, ops)
    values["engine.sweeps"] = layers.span_count(profile, "engine.mma") \
        / max(1, ops)
    # one pass over the eight problems: exact, repeatable counts
    one_pass = [window.first[case.label] for case in state.cases]
    values["tcu.fragment_ops"] = float(sum(
        launch.fragment_ops for _, _, launches in one_pass
        for launch in launches))
    values["tcu.device_s"] = sum(
        launch.elapsed_seconds for _, _, launches in one_pass
        for launch in launches)
    values["tcu.bytes_computed"] = float(sum(
        solution.compiled.plan.estimate.traffic.global_bytes
        * len(launches) for solution, _, launches in one_pass))
    window.first = {label: result[0] for label, result in window.first.items()}
    return _finish(window, state), values
