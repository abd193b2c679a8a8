"""sharded-numpy: warm numpy-backend sharded solves on four simulated devices.

Each operation is one ``StencilSession.solve(mode="sharded")`` with deep
halos (depth 2) over 2-D and 3-D kernels on grids large enough to tile, or
one sharded 2-stage ``StencilProgram`` chain.  The numpy tap loop,
``GridPartition`` halo exchange, ``engine/sharded.py`` and
``programs/executor.py`` do the work; the tcu MMA never runs, so a tcu-sim
sweep fix should leave this workload unchanged, and vice versa.

Every output must be bit-identical to the single-device output computed
after set-up, which in turn must be float64-close to the golden reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from perfbench import common, harness, layers, oracles

NAME = "sharded-numpy"
#: the traced run also times the golden reference on these problems
REFERENCE_BASELINE = True
DEVICES = 4
WORKERS = 2
HALO_DEPTH = 2
KERNELS = (
    ("Heat-2D", (384, 384), 8),
    ("Box-2D9P", (384, 384), 8),
    ("Star-2D13P", (384, 384), 8),
    ("Heat-3D", (64, 64, 64), 8),
    ("Box-3D27P", (64, 64, 64), 8),
)
PROGRAM = ("chain:Heat-2D>Box-2D9P", (384, 384), 4)
KERNEL_POLICY = {"mode": "sharded", "backend": "numpy",
                 "halo_depth": HALO_DEPTH}
PROGRAM_POLICY = {"mode": "sharded", "backend": "numpy"}
#: every case compiles at the default fp16 precision, which sizes the halo
#: bytes the engine reports
HALO_ITEMSIZE = 2


@dataclass
class State:
    cases: List[common.Case]
    session: Any

    def close(self) -> None:
        self.session.close()


def two_stage_chain() -> Any:
    from repro import ProgramStage, StencilProgram, get_benchmark

    return StencilProgram(name="chain", stages=(
        ProgramStage.kernel("heat", get_benchmark("Heat-2D").pattern),
        ProgramStage.kernel("blur", get_benchmark("Box-2D9P").pattern,
                            source="heat")))


def inputs(seed: int) -> Tuple[List[common.Case], Dict[str, Any]]:
    from repro import Problem, get_benchmark, make_grid

    cases = []
    for index, (name, shape, iterations) in enumerate(KERNELS):
        pattern = get_benchmark(name).pattern
        grid = make_grid(shape, kind="random", seed=seed * 100 + index)
        cases.append(common.Case(
            label=name, problem=Problem(pattern, grid, iterations),
            policy=KERNEL_POLICY,
            cells=common.cells(pattern, shape, iterations),
            check=oracles.check_fp64))
    label, shape, steps = PROGRAM
    program = two_stage_chain()
    grid = make_grid(shape, kind="random", seed=seed * 100 + len(KERNELS))
    cases.append(common.Case(
        label=label, problem=Problem(program=program, grid=grid,
                                     iterations=steps),
        policy=PROGRAM_POLICY,
        cells=sum(common.cells(pattern, shape, steps)
                  for stage in program.stages for _, pattern in stage.taps),
        check=oracles.check_fp64))
    for case in cases:
        case.reference = common.golden(case.problem)
    return cases, {
        "operation": f"StencilSession(devices={DEVICES}, max_workers="
                     f"{WORKERS}).solve(problem, mode='sharded', "
                     f"backend='numpy', halo_depth={HALO_DEPTH})",
        "cases": [{"case": case.label, "shape": list(case.problem.grid_shape),
                   "iterations": case.problem.iterations}
                  for case in cases]}


def setup(cases: List[common.Case]) -> State:
    """A fresh four-device session with every plan (and every shard-window
    plan) compiled by one warm sharded solve each."""
    from repro import StencilSession

    session = StencilSession(devices=DEVICES, max_workers=WORKERS)
    for case in cases:
        session.compile(case.problem)
        session.solve(case.problem, **case.policy)
    return State(cases=cases, session=session)


def prepare_oracles(state: State) -> List[str]:
    """Single-device outputs every sharded output must equal bit for bit;
    returns the cases whose single-device output missed the reference."""
    problems = []
    for case in state.cases:
        single = state.session.solve(case.problem, mode="single",
                                     backend="numpy").output
        problem = case.check(single, case.reference)
        if problem is not None:
            problems.append(f"{case.label} single-device: {problem}")
        case.expected = single
    return problems


def _entry(session: Any, case: common.Case):
    return (case.label,
            lambda: session.solve(case.problem, **case.policy),
            lambda solution: case.verify(solution.output))


def _finish(window: harness.Window, state: State) -> harness.Window:
    window.extras["modelled_gstencil_per_s"] = common.modelled_gstencil_per_s(
        [solution.result for solution in window.first.values()])
    window.extras["cell_updates"] = common.cell_updates(window, state.cases)
    return window


def measure(state: State, seconds: float) -> harness.Window:
    return _finish(harness.closed_loop(
        [_entry(state.session, case) for case in state.cases], seconds),
        state)


def traced(state: State, seconds: float, tracer: Any
           ) -> Tuple[harness.Window, Dict[str, float]]:
    """Each operation: the fingerprint (plain kernels), a timed
    ``StencilSession.decide``, then the real traced solve, whose ``round``,
    ``halo_exchange`` and ``sweep`` spans come from the program itself.
    ``GridPartition.extract``/``assemble`` get spans and the shard sweeps a
    busy clock while the window runs."""
    import repro.engine.sharded as sharded_engine
    import repro.programs.executor as program_executor
    from repro import GridPartition, StencilSession

    session = StencilSession(devices=DEVICES, max_workers=WORKERS,
                             cache=state.session.cache, tracer=tracer)
    before = session.cache.snapshot_stats()
    shard_busy = layers.BusyClock()

    def entry(case):
        def run():
            if not case.problem.is_program:
                with tracer.span("fingerprint"):
                    case.problem.compile_request().fingerprint
            with tracer.span("scheduler.decide"):
                session.decide(case.problem)
            return session.solve(case.problem, **case.policy)

        return case.label, run, lambda s: case.verify(s.output)

    with layers.spans_around(GridPartition, "extract", tracer,
                             "partition.extract"), \
            layers.spans_around(GridPartition, "assemble", tracer,
                                "partition.assemble"), \
            layers.busy_around([(sharded_engine, "run_shard_phase"),
                                (program_executor, "run_shard_phase")],
                               shard_busy):
        window = harness.closed_loop(
            [entry(case) for case in state.cases], seconds,
            around=lambda label: tracer.span(layers.OP_SPAN, case=label))
    ops = max(1, len(window.latencies))
    spans = tracer.spans()
    values = common.session_layer_values(spans, ops)
    values.update(common.cache_values(session.cache, before, ops))
    values["partition.halo_elements"] = sum(
        span.attrs.get("bytes", 0) for span in spans
        if span.name == "halo_exchange") / HALO_ITEMSIZE / ops
    values["engine.numpy_sweep.busy_s"] = shard_busy.seconds / ops
    # the program figures are per program operation, not per operation
    program_ops = window.completed.get(PROGRAM[0], 0)
    values["programs.exchanges"] *= ops / max(1, program_ops)
    values["programs.step.busy_s"] *= ops / max(1, program_ops)
    return _finish(window, state), values
