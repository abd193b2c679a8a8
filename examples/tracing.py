"""End-to-end tracing: follow one served, sharded request span by span.

A :class:`repro.Tracer` attached to the session records every phase a
request passes through — queue wait, the coalescing window, the routing
decision (including the communication-avoiding halo depth), compiles and
cache lookups, and per-round sweeps / halo exchanges inside the sharded
engine — as one span tree, keyed by the ``trace_id`` stamped into
``Solution.provenance``.  The trace exports to Chrome trace-event JSON
(open it at https://ui.perfetto.dev) and to JSONL, and the unified metrics
registry exports a one-dict snapshot of the whole system next to it.

Run with::

    python examples/tracing.py [output.json]
"""

from __future__ import annotations

import json
import sys

from repro import (
    Problem,
    SessionConfig,
    SolvePolicy,
    StencilPattern,
    StencilSession,
    Tracer,
    global_registry,
    make_grid,
)
from repro.analysis import render_span_tree, validate_spans


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")

    # 1. A tracer-equipped session: every solve opens a root span, and the
    #    server / cache / engines join it automatically.
    tracer = Tracer()
    with StencilSession(SessionConfig(devices=4, tracer=tracer,
                                      min_speedup=1.01)) as session:
        # 2. One served request, big enough that the scheduler shards it
        #    across the pool (per-round sweep + halo-exchange spans).
        problem = Problem(heat, make_grid((1024, 1024), seed=7),
                          iterations=8, tag="traced-request")
        solution = session.solve(problem, SolvePolicy(mode="served"))
        # snapshot while the server is alive — registry providers are
        # weakrefs, so the server section is pruned once the session closes
        snapshot = global_registry().snapshot()

    trace_id = solution.provenance.trace_id
    spans = tracer.spans(trace_id)
    print(f"executor: {solution.provenance.executor} "
          f"(delegate={solution.provenance.delegate}, "
          f"devices={solution.provenance.devices})")
    print(f"trace_id: {trace_id}  ({len(spans)} spans)")
    problems = validate_spans(spans)
    print(f"trace well-formed: {not problems}")

    # 3. The span tree, human-readable (wall ms + modelled device ms).
    print()
    print(render_span_tree(spans, attr_keys=["outcome", "halo_depth",
                                             "executor", "devices",
                                             "round", "phase"]))

    # 4. Chrome trace-event export — load this file in Perfetto.
    tracer.export_chrome(out_path, trace_id)
    with open(out_path) as fh:
        doc = json.load(fh)
    print(f"\nwrote {out_path}: {len(doc['traceEvents'])} events "
          f"(open at https://ui.perfetto.dev)")

    # 5. The unified metrics snapshot: server, cache and device-pool
    #    sections in one dict, registered automatically (taken above,
    #    while the session was still serving).
    sections = sorted(k for k in snapshot if k != "counters")
    print(f"metrics sections: {sections}")
    for name in sections:
        if name.startswith("cache"):
            cache = snapshot[name]
            print(f"  {name}: hit_rate={cache['hit_rate']:.2f} "
                  f"resident={cache['resident_plans']}")

    assert not problems, problems
    assert {"queue_wait", "coalesce", "route", "sweep"} <= \
        {s.name for s in spans}
    assert any(name.startswith("server") for name in sections), sections


if __name__ == "__main__":
    main()
