"""compile-cold: one ``CompileCache.compile`` on a fresh cache per operation.

Inputs are catalog kernels (``full_catalog``), each at two grid shapes of
its dimension, in seeded order.  The layout search, 2:4 conversion and its
matching, metadata, LUT and kernel generation do all of the work; nothing
sweeps.  Both shapes of a kernel evaluate the same morphed ``A'`` candidates
(``A'`` depends on pattern and layout only), which is the cross-grid reuse a
conversion memo would exploit.

Every plan is checked against ``expected_compile_digests.json``: the chosen
``(r1, r2)`` plus digests of the converted operands, metadata and LUT.
Regenerate that file only for an intended change of the compiled plans::

    python3 perfbench/compile_cold.py --write-digests
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

if __package__ in (None, ""):  # run as a script
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                    str(Path(__file__).resolve().parents[1])]

from perfbench import harness, layers, oracles  # noqa: E402

NAME = "compile-cold"
DIGEST_FILE = Path(__file__).resolve().parent / "expected_compile_digests.json"

#: A fixed spread over the catalog: 1-D, 2-D stars and boxes from 5 to 49
#: points, and the 3-D Heat and Box-27 kernels whose compiles dominate.
KERNELS = (
    "heat_diffusion/heat-1d",
    "heat_diffusion/heat-1d-o8",
    "geophysics_seismic/acoustic-1d-o8",
    "heat_diffusion/heat-2d",
    "image_ml/sobel-2d",
    "pde_solvers/box-2d9p",
    "pde_solvers/star-2d13p",
    "pde_solvers/star-2d17p",
    "image_ml/gaussian-blur-r2",
    "pde_solvers/box-2d49p",
    "heat_diffusion/heat-3d",
    "pde_solvers/box-3d27p",
)
SHAPES = {
    1: ((2048,), (3072,)),
    2: ((64, 64), (96, 96)),
    3: ((24, 24, 24), (32, 32, 32)),
}

Case = Tuple[Any, Tuple[int, ...]]


def case_key(pattern: Any, shape: Tuple[int, ...]) -> str:
    return f"{pattern.name}@{'x'.join(map(str, shape))}"


def catalog_cases() -> List[Case]:
    from repro import full_catalog

    by_name = {pattern.name: pattern for pattern in full_catalog()}
    return [(by_name[name], shape) for name in KERNELS
            for shape in SHAPES[by_name[name].ndim]]


@dataclass
class State:
    cases: List[Case]
    expected: Dict[str, Dict[str, Any]]


def inputs(seed: int) -> Tuple[List[Case], Dict[str, Any]]:
    cases = catalog_cases()
    order = np.random.default_rng(seed).permutation(len(cases))
    cases = [cases[i] for i in order]
    return cases, {"operation": "CompileCache().compile(pattern, shape)",
                   "cases": [case_key(p, s) for p, s in cases]}


def setup(cases: List[Case]) -> State:
    """The warm-up a cold compile assumes: the package imported and one
    compile done, so the lazy imports are paid."""
    from repro import CompileCache, get_benchmark

    CompileCache().compile(get_benchmark("Heat-2D").pattern, (32, 32))
    with DIGEST_FILE.open() as handle:
        expected = json.load(handle)
    return State(cases=cases, expected=expected)


def modelled_gstencil_per_s(plans: List[Any]) -> float:
    """Aggregate modelled rate of the compiled kernels.  No solve runs in
    this workload, so it comes from each plan's roofline estimate: points
    per sweep over modelled sweep seconds."""
    from repro.stencils.reference import stencil_points_updated

    points = sum(stencil_points_updated(plan.pattern, plan.grid_shape, 1)
                 for plan in plans)
    seconds = sum(plan.plan.estimate.t_total for plan in plans)
    return points / seconds / 1e9


def _finish(window: harness.Window) -> harness.Window:
    window.extras["modelled_gstencil_per_s"] = modelled_gstencil_per_s(
        list(window.first.values()))
    return window


def measure(state: State, seconds: float) -> harness.Window:
    from repro import CompileCache

    def entry(pattern, shape):
        key = case_key(pattern, shape)
        expected = state.expected.get(key)
        return (key, lambda: CompileCache().compile(pattern, shape),
                lambda compiled: oracles.check_digest(compiled, expected))

    return _finish(harness.closed_loop(
        [entry(pattern, shape) for pattern, shape in state.cases], seconds))


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #
def replay_passes(options: Any, tracer: Any) -> Tuple[Any, int]:
    """Call again, one span each, the public passes ``compile_resolved``
    runs; returns the rebuilt kernel plan and the number of layout
    candidates the search evaluated."""
    from repro.core.codegen import generate_kernel
    from repro.core.conversion import convert_to_24
    from repro.core.layout_search import search_layout
    from repro.core.lookup_table import build_lookup_table
    from repro.core.metadata import build_metadata
    from repro.core.morphing import MorphConfig, morph_kernel_matrix
    from repro.core.staircase import block_structure_from_morph

    effective = options.effective_pattern
    shape = options.grid_shape
    candidates = 0
    with tracer.span("core.search"):
        if options.search:
            search = search_layout(
                effective, shape, fragment=options.fragment,
                dtype=options.dtype, spec=options.spec, engine=options.engine,
                conversion_method=options.conversion_method)
            config = search.best_config
            candidates = len(search.candidates)
        else:
            config = MorphConfig.from_r1_r2(effective.ndim, int(options.r1),
                                            int(options.r2))
    with tracer.span("core.morph"):
        a_prime = morph_kernel_matrix(effective, config)
    conversion = metadata = None
    if options.engine == "sparse_mma":
        with tracer.span("core.convert"):
            structure = block_structure_from_morph(effective, config)
            conversion = convert_to_24(a_prime, structure=structure,
                                       method=options.conversion_method)
        with tracer.span("core.metadata"):
            metadata = build_metadata(conversion.a_converted)
    with tracer.span("core.lut"):
        lut = build_lookup_table(effective, shape, config)
    with tracer.span("core.codegen"):
        plan = generate_kernel(
            effective, shape, config, fragment=options.fragment,
            dtype=options.dtype, spec=options.spec, engine=options.engine,
            conversion_method=options.conversion_method,
            block_hint=options.block_hint, render_source=False,
            prebuilt_conversion=conversion, prebuilt_metadata=metadata,
            prebuilt_lut=lut)
    return plan, candidates


CORE_PASSES = ("search", "morph", "convert", "metadata", "lut", "codegen")


def traced(state: State, seconds: float, tracer: Any
           ) -> Tuple[harness.Window, Dict[str, float]]:
    """Each operation: the fingerprint, the real cached compile, then a
    span-per-pass replay whose plan must match the compiled one."""
    from dataclasses import replace

    from repro import CompileCache, CompileRequest

    candidates: List[int] = []
    lookups: List[Any] = []

    def entry(pattern, shape):
        key = case_key(pattern, shape)
        expected = state.expected.get(key)

        def run():
            with tracer.span("fingerprint"):
                request = CompileRequest.build(pattern, shape)
                request.fingerprint
            cache = CompileCache()
            with tracer.span("cache.compile"):
                compiled = cache.get_or_compile(request)
            lookups.append(cache.snapshot_stats())
            plan, count = replay_passes(request.options, tracer)
            candidates.append(count)
            return compiled, replace(compiled, plan=plan)

        def check(result):
            compiled, replayed = result
            return (oracles.check_digest(compiled, expected)
                    or oracles.check_digest(replayed, expected))

        return key, run, check

    window = harness.closed_loop(
        [entry(pattern, shape) for pattern, shape in state.cases], seconds,
        around=lambda label: tracer.span(layers.OP_SPAN, case=label))
    window.first = {key: result[0] for key, result in window.first.items()}
    _finish(window)

    spans = tracer.spans()
    profile = layers.layer_profile(spans)
    ops = max(1, len(window.latencies))
    total = sum(stats.lookups for stats in lookups)
    values = {
        "fingerprint.busy_s": layers.self_seconds(profile, "fingerprint")
        / ops,
        # the compile runs inside the cache's own ``cache.lookup`` span
        "cache.compile.busy_s": layers.self_seconds(
            profile, "cache.compile", "cache.lookup") / ops,
        "cache.lookups": total / ops,
        "cache.hit_ratio": (sum(stats.hits for stats in lookups) / total
                            if total else 0.0),
    }
    for name in CORE_PASSES:
        values[f"core.{name}.busy_s"] = layers.self_seconds(
            profile, f"core.{name}") / ops
    values["core.search.candidates"] = (sum(candidates) / len(candidates)
                                        if candidates else 0.0)
    return window, values


def write_digests() -> Path:
    """Recompute ``expected_compile_digests.json`` from the current code."""
    from repro import CompileCache

    digests = {case_key(pattern, shape): oracles.plan_digest(
        CompileCache().compile(pattern, shape))
        for pattern, shape in catalog_cases()}
    with DIGEST_FILE.open("w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return DIGEST_FILE


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: python3 perfbench/compile_cold.py --write-digests")
    print(write_digests())
