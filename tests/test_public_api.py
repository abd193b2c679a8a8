"""Tests for the top-level public API surface (what the README advertises).

Beyond the smoke checks, this module snapshots the *shape* of the public
API — every ``repro.__all__`` export with its kind and callable signature —
into ``tests/data/api_surface.json``.  CI compares the live surface against
the checked-in snapshot, so any accidental rename, signature change or
dropped export fails loudly and intentional changes leave a reviewable diff.

Regenerate after an intentional API change with::

    REPRO_UPDATE_API_SNAPSHOT=1 PYTHONPATH=src python -m pytest tests/test_public_api.py
"""

import enum
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro

SNAPSHOT_PATH = Path(__file__).parent / "data" / "api_surface.json"

#: Defaults whose repr is stable across runs/versions; anything else (device
#: specs, sentinel objects) is recorded as "<object>" so the snapshot never
#: churns on cosmetic repr changes.
_LITERAL_DEFAULTS = (str, int, float, bool, type(None))


def _signature_of(obj):
    """Normalised signature string: parameter names, kinds and literal
    defaults only (no annotations, no object reprs)."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return None
    parts = []
    seen_kw_only_marker = False
    for parameter in signature.parameters.values():
        if parameter.name in ("self", "cls"):
            continue
        if (parameter.kind is inspect.Parameter.KEYWORD_ONLY
                and not seen_kw_only_marker):
            parts.append("*")
            seen_kw_only_marker = True
        token = parameter.name
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            token = f"*{token}"
            seen_kw_only_marker = True
        elif parameter.kind is inspect.Parameter.VAR_KEYWORD:
            token = f"**{token}"
        if parameter.default is not inspect.Parameter.empty:
            default = parameter.default
            token += "=" + (repr(default)
                            if isinstance(default, _LITERAL_DEFAULTS)
                            else "<object>")
        parts.append(token)
    return f"({', '.join(parts)})"


def current_api_surface():
    """``{export name: {kind, signature}}`` for every ``repro.__all__``."""
    surface = {}
    for name in sorted(repro.__all__):
        obj = getattr(repro, name)
        if inspect.isclass(obj) and issubclass(obj, enum.Enum):
            # enum constructor signatures differ across Python versions;
            # the member list is the stable public surface
            entry = {"kind": "enum", "members": sorted(obj.__members__)}
        elif inspect.isclass(obj):
            entry = {"kind": "class", "signature": _signature_of(obj)}
        elif callable(obj):
            entry = {"kind": "function", "signature": _signature_of(obj)}
        else:
            entry = {"kind": type(obj).__name__}
        surface[name] = entry
    return surface


class TestExports:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_present(self):
        for name in ("StencilPattern", "make_grid", "compile_stencil",
                     "search_layout", "convert_to_24", "get_baseline",
                     "compare_methods", "Problem", "SolvePolicy", "Solution",
                     "StencilSession", "SessionConfig", "default_session"):
            assert name in repro.__all__


class TestApiSurfaceSnapshot:
    """The exported-name + signature snapshot checked in CI."""

    def test_surface_matches_snapshot(self):
        surface = current_api_surface()
        if os.environ.get("REPRO_UPDATE_API_SNAPSHOT") == "1":
            SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
            SNAPSHOT_PATH.write_text(json.dumps(surface, indent=2,
                                                sort_keys=True) + "\n")
            pytest.skip(f"snapshot regenerated at {SNAPSHOT_PATH}")
        assert SNAPSHOT_PATH.exists(), (
            f"API snapshot missing — regenerate with "
            f"REPRO_UPDATE_API_SNAPSHOT=1 pytest {Path(__file__).name}")
        snapshot = json.loads(SNAPSHOT_PATH.read_text())

        added = sorted(set(surface) - set(snapshot))
        removed = sorted(set(snapshot) - set(surface))
        changed = sorted(name for name in set(surface) & set(snapshot)
                         if surface[name] != snapshot[name])
        assert not (added or removed or changed), (
            f"public API surface drifted from tests/data/api_surface.json:\n"
            f"  added:   {added}\n"
            f"  removed: {removed}\n"
            f"  changed: {changed}\n"
            f"If intentional, regenerate with REPRO_UPDATE_API_SNAPSHOT=1 "
            f"and review the diff.")

    def test_snapshot_covers_all_exports(self):
        snapshot = json.loads(SNAPSHOT_PATH.read_text())
        assert sorted(snapshot) == sorted(repro.__all__)


class TestQuickstartFlow:
    """The exact flow the README quickstart shows (session API)."""

    def test_quickstart(self):
        heat = repro.StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1])
        grid = repro.make_grid((64, 64), kind="gaussian")
        with repro.StencilSession() as session:
            solution = session.solve(repro.Problem(heat, grid, iterations=4))
        assert solution.output.shape == (64, 64)
        assert solution.gstencil_per_second > 0
        assert solution.provenance.executor == "single"
        reference = repro.run_stencil_iterations(heat, grid, 4)
        assert np.max(np.abs(solution.output - reference)) < 5e-3

    def test_inspect_generated_kernel(self):
        heat = repro.StencilPattern.star(2, 1)
        plan = repro.generate_kernel(heat, (64, 64),
                                     repro.MorphConfig.from_r1_r2(2, 4, 4))
        source = repro.render_cuda_source(plan)
        assert "mma.sp" in source

    def test_baseline_comparison_flow(self):
        pattern = repro.get_benchmark("Box-2D9P").pattern
        grid = repro.make_grid((48, 48), seed=1)
        methods = [repro.get_baseline("sparstencil"), repro.get_baseline("cudnn")]
        comparison = repro.compare_methods(pattern, grid, 2, methods)
        speedups = comparison.speedup_over("cuDNN")
        assert speedups["SparStencil"] > 1.0

    def test_device_spec_customisation(self):
        custom = repro.A100_SPEC.with_overrides(global_bandwidth_gbs=2039.0)
        heat = repro.StencilPattern.star(2, 1)
        fast = repro.compile_stencil(heat, (64, 64), spec=custom)
        slow = repro.compile_stencil(heat, (64, 64))
        assert fast.plan.estimate.t_memory <= slow.plan.estimate.t_memory
