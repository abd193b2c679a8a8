"""Helpers shared by the workloads that solve problems through a session."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import layers


@dataclass
class Case:
    """One problem a workload solves repeatedly, with its oracle."""

    label: str
    problem: Any
    policy: Dict[str, Any]
    cells: int                      # interior cells x iterations
    reference: Any = None           # golden output (numpy array)
    check: Optional[Callable[[Any, Any], Optional[str]]] = None
    expected: Any = None            # output the result must equal bit for bit

    def verify(self, output: Any) -> Optional[str]:
        from perfbench import oracles

        if self.expected is not None:
            problem = oracles.check_identical(output, self.expected)
            if problem is not None:
                return problem
        return self.check(output, self.reference) if self.check else None


def cells(pattern: Any, shape: Sequence[int], iterations: int) -> int:
    from repro.stencils.reference import stencil_points_updated

    return int(stencil_points_updated(pattern, tuple(shape), iterations))


def modelled_gstencil_per_s(results: Sequence[Any]) -> float:
    """Aggregate modelled rate of one pass over the distinct problems:
    modelled stencil updates over modelled device seconds, from each
    solution's run result (the quantity behind
    ``Solution.gstencil_per_second``)."""
    points = sum(result.points_updated for result in results)
    seconds = sum(result.elapsed_seconds for result in results)
    return points / seconds / 1e9


def cell_updates(window: Any, cases: Sequence[Case]) -> int:
    by_label = {case.label: case.cells for case in cases}
    return sum(by_label[label] * count
               for label, count in window.completed.items())


def golden(problem: Any) -> Any:
    """The float64 golden reference of ``problem``."""
    from repro import run_program_reference, run_stencil_iterations

    if problem.is_program:
        return run_program_reference(problem.program, problem.grid,
                                     problem.iterations)
    return run_stencil_iterations(problem.pattern, problem.grid,
                                  problem.iterations)


def reference_rate(cases: Sequence[Case], passes: int = 3
                   ) -> Tuple[float, List[Dict[str, Any]]]:
    """Plain single-threaded baseline: cell updates per second of the
    golden reference over ``passes`` passes of ``cases``, plus per-case
    seconds per solve."""
    total_cells = 0
    total_seconds = 0.0
    rows = []
    for case in cases:
        t0 = time.perf_counter()
        for _ in range(passes):
            golden(case.problem)
        seconds = time.perf_counter() - t0
        total_cells += case.cells * passes
        total_seconds += seconds
        rows.append({"case": case.label,
                     "reference_s_per_solve": seconds / passes})
    return total_cells / total_seconds, rows


def session_layer_values(spans: Sequence[Any], ops: int
                         ) -> Dict[str, float]:
    """Per-operation self seconds of the layers the program spans itself
    (session, cache, sharded rounds, partition exchange, programs) and of
    the benchmark's own spans around public calls."""
    profile = layers.layer_profile(spans)
    own = layers.self_times(spans)
    by_id = {span.span_id: span for span in spans}

    def under(span: Any, name: str) -> bool:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent_id)
        return False

    compiles = sum(own[span.span_id] for span in spans
                   if span.name == "cache.lookup"
                   and span.attrs.get("outcome") == "compile")
    exchanges = [span for span in spans if span.name == "halo_exchange"]
    round_sweeps = [span for span in spans if span.name == "sweep"
                    and by_id.get(span.parent_id) is not None
                    and by_id[span.parent_id].name == "round"]
    ops = max(1, ops)
    values = {
        "session.solve.busy_s": layers.self_seconds(profile, "solve"),
        "scheduler.decide.busy_s": layers.self_seconds(profile,
                                                       "scheduler.decide"),
        "fingerprint.busy_s": layers.self_seconds(profile, "fingerprint"),
        "cache.compile.busy_s": compiles,
        "partition.exchange.busy_s": layers.self_seconds(profile,
                                                         "halo_exchange"),
        "partition.exchanges": len(exchanges),
        "partition.extract.busy_s": layers.self_seconds(
            profile, "partition.extract"),
        "partition.assemble.busy_s": layers.self_seconds(
            profile, "partition.assemble"),
        "sharded.round.busy_s": layers.self_seconds(profile, "round"),
        "sharded.shard_wait_s": sum(span.end_seconds - span.start_seconds
                                    for span in round_sweeps),
        "programs.step.busy_s": layers.self_seconds(profile, "program_step",
                                                    "stage"),
        "programs.exchanges": sum(1 for span in exchanges
                                  if under(span, "program_step")),
    }
    return {name: value / ops for name, value in values.items()}


def cache_values(cache: Any, before: Any, ops: int) -> Dict[str, float]:
    """Lookups per operation and hit ratio of ``cache`` since the
    ``before`` snapshot (from ``snapshot_stats()``)."""
    after = cache.snapshot_stats()
    lookups = after.lookups - before.lookups
    hits = after.hits - before.hits
    return {"cache.lookups": lookups / max(1, ops),
            "cache.hit_ratio": hits / lookups if lookups else 0.0}


def kernel_counts(session: Any, cases: Sequence[Case]) -> List[Dict[str, Any]]:
    """Per-kernel operation counts and bytes moved, computed from the plans
    (not measured): flops of the original stencil, fragment MMAs and the
    roofline model's global-memory bytes, per sweep."""
    rows = []
    for case in cases:
        if case.problem.is_program:
            continue
        plan = session.compile(case.problem).plan
        pattern = case.problem.pattern
        flops = 2.0 * pattern.points * cells(pattern,
                                             case.problem.grid_shape, 1)
        moved = plan.estimate.traffic.global_bytes
        rows.append({"kernel": case.label,
                     "flops_per_sweep": flops,
                     "fragment_mma_per_sweep": plan.estimate.n_mma,
                     "bytes_moved_per_sweep_computed": moved,
                     "flops_per_byte_computed": flops / moved})
    return rows
