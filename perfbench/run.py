"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``op_p50_s``, ``op_p90_s`` and ``ops_per_s`` are read from
each case's median latency (:meth:`harness.Window.steady_summary`), and
every end-to-end timing is reported at the reference host speed
(:func:`harness.host_probe`); the wall-clock figures and raw quantiles go
to the record.  ``--trace 1`` is a separate run that prints the per-layer
metrics (self seconds per operation of each layer, counts, and the server
and load-generator figures).  It profiles the workload and its companion
(see :data:`COMPANIONS`), each for a quarter of the window untraced and a
quarter traced.  Both write the full record (stamp, inputs, per-layer
table, errors) to ``perfbench/results/``.  All times are measured on the
host wall clock; the modelled A100 clock appears only as
``modelled_gstencil_per_s`` and the ``tcu.*`` counts, which must not move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the workloads' own worker threads
# are then the only parallelism (at most nproc), the golden reference is a
# plain single-threaded baseline, and no idle BLAS thread spins on a core
# the measured code needs.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("sweep-tcu", "sharded-numpy")
#: The profile-only module each workload's traced run also measures, and
#: the per-layer metrics taken from it: the layers the workload itself
#: leaves idle (or, for the cache figures, that belong to serving).  The
#: companions are profiled, not gated end to end: compile-cold's layout
#: search, pure interpreter work, runs up to 1.7x slower or faster from one
#: run to the next with the shared host's load, and a third workload would
#: leave too little time per run within the benchmark's time allowance.
COMPANIONS = {
    "sweep-tcu": ("compile-cold", (
        "cache.compile.busy_s", "core.search.busy_s",
        "core.search.candidates", "core.morph.busy_s", "core.convert.busy_s",
        "core.metadata.busy_s", "core.lut.busy_s", "core.codegen.busy_s")),
    "sharded-numpy": ("served-skewed", (
        "cache.lookups", "cache.hit_ratio", "server.queue_wait_s.p50",
        "server.queue_wait_s.p90", "server.execute_s.p50",
        "server.coalesce_ratio", "server.rejected", "server.queue.peak_depth",
        "loadgen.late_p90_s", "slo_miss_rate")),
}


def load_workload(name: str):
    from perfbench import compile_cold, served_skewed, sharded_numpy, \
        sweep_tcu

    return {module.NAME: module for module in
            (compile_cold, sweep_tcu, sharded_numpy, served_skewed)}[name]


def end_to_end(window, setup_s: float) -> dict:
    """The end-to-end metrics, timings at the reference host speed: each
    wall time is multiplied, and the rate divided, by the window's
    :meth:`~harness.Window.host_speed`."""
    from perfbench import harness

    summary = window.steady_summary()
    speed = window.host_speed()
    return {
        "setup_s": setup_s * speed,
        "op_p50_s": summary["op_p50_s"] * speed,
        "op_p90_s": summary["op_p90_s"] * speed,
        "ops_per_s": summary["ops_per_s"] / speed,
        "modelled_gstencil_per_s": window.extras["modelled_gstencil_per_s"],
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def profile(module, state, seconds: float, names) -> tuple:
    """Measure ``module`` untraced, then traced, each for half of
    ``seconds``; returns ``(per-layer values, attempted, failed, failure
    messages, details)``.  A malformed or dropped span counts as one
    failure."""
    from repro import Tracer
    from repro.analysis import validate_spans

    from perfbench import common, layers

    untraced = module.measure(state, seconds / 2)
    tracer = Tracer(max_spans=5_000_000)
    traced, values = module.traced(state, seconds / 2, tracer)
    spans = tracer.spans()
    problems = [f"span: {problem}" for problem in validate_spans(spans)]
    if tracer.dropped:
        problems.append(f"span: tracer dropped {tracer.dropped} spans")
    uncovered, op_seconds = layers.unaccounted(
        spans, getattr(module, "OP_ROOT", layers.OP_SPAN))
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    values.update({
        "cell_updates_per_s": untraced.extras.get("cell_updates", 0)
        / untraced.elapsed,
        "error_rate": failed / max(1, attempted),
        "obs.trace_overhead_ratio": traced.steady_summary()["ops_per_s"]
        / untraced.steady_summary()["ops_per_s"],
        "obs.unaccounted_ratio": uncovered / op_seconds if op_seconds else 0.0,
    })
    values.update({name: value for name, value in untraced.extras.items()
                   if name in names})
    details = {"unaccounted_s": uncovered, "op_s": op_seconds,
               "untraced_window": untraced.latency_summary(),
               "traced_window": traced.latency_summary(),
               "layers": {name: row.as_dict() for name, row in
                          sorted(layers.layer_profile(spans).items())}}
    if getattr(module, "REFERENCE_BASELINE", False):
        details["kernels_computed"] = common.kernel_counts(
            state.session, state.cases)
    return (values, attempted, failed + (1 if problems else 0),
            untraced.errors + traced.errors + problems, details)


def set_up(module, seed: int):
    """Seeded inputs and a set-up state; returns ``(state, described
    inputs, setup seconds, every setup repeat, oracle failures)``."""
    from perfbench import harness

    cases, described = module.inputs(seed)
    state, setup_s, setup_times = harness.timed_setup(
        lambda: module.setup(cases))
    failures = (module.prepare_oracles(state)
                if hasattr(module, "prepare_oracles") else [])
    return state, described, setup_s, setup_times, failures


def close(state) -> None:
    if state is not None and hasattr(state, "close"):
        state.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro source tree under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    from perfbench import common, harness

    definition = harness.load_definition()
    why = {entry["name"]: entry["why"] for entry in definition["workloads"]}
    module = load_workload(args.workload)
    trace = bool(args.trace)

    state, described, setup_s, setup_times, oracle_failures = set_up(
        module, args.seed)
    record = {"stamp": harness.stamp(args.workload, why[args.workload],
                                     args.seed, trace, described),
              "setup_s_repeats": setup_times,
              "oracle_failures": oracle_failures}
    failures = list(oracle_failures)
    attempted = failed = 0
    companion_state = None
    try:
        if not trace:
            window = module.measure(state, args.seconds)
            values = end_to_end(window, setup_s)
            attempted, failed = window.attempted, window.failed
            failures += window.errors
            record["window"] = dict(window.steady_summary(),
                                    setup_s=setup_s,
                                    host_speed=window.host_speed())
            record["raw_window"] = window.latency_summary()
            record["samples"] = {"label": window.labels,
                                 "latency_s": window.latencies}
            if not record["window"]["p90_trusted"]:
                harness.log(f"op_p90_s flagged: fewer than "
                            f"{harness.MIN_BEYOND} samples lie beyond it")
        else:
            names = harness.metric_units(definition, trace=True)
            values = dict.fromkeys(names, 0.0)
            own, attempted, failed, problems, details = profile(
                module, state, args.seconds / 2, names)
            values.update(own)
            failures += problems
            record.update(details)

            companion_name, taken = COMPANIONS[args.workload]
            companion = load_workload(companion_name)
            companion_state, inputs, _, _, companion_failures = set_up(
                companion, args.seed)
            borrowed, more, more_failed, problems, details = profile(
                companion, companion_state, args.seconds / 2, names)
            values.update({name: borrowed[name] for name in taken})
            values["error_rate"] = (failed + more_failed) / max(
                1, attempted + more)
            attempted += more + len(companion_failures)
            failed += more_failed + len(companion_failures)
            failures += companion_failures + problems
            record["companion"] = dict(details, workload=companion_name,
                                       inputs=inputs)
            references = [case for held_module, held in (
                (module, state), (companion, companion_state))
                if getattr(held_module, "REFERENCE_BASELINE", False)
                for case in held.cases]
            if references:
                rate, rows = common.reference_rate(references)
                values["reference.cell_updates_per_s"] = rate
                record["reference"] = rows
    finally:
        close(state)
        close(companion_state)
    failed += len(oracle_failures)
    line = harness.result_line(
        definition, trace, values, correct=failed == 0,
        attempted=attempted + len(oracle_failures), failed=failed)
    record["errors"] = failures[:20]
    record["result"] = line
    path = harness.write_results(
        f"{args.workload}-seed{args.seed}-trace{int(trace)}", record)
    for problem in failures[:5]:
        harness.log(f"failure: {problem}")
    harness.log(f"{args.workload}: record written to {path}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
