"""The declared manifest (``pyproject.toml``) covers every third-party import.

A clean runner installs only what the manifest declares, so an undeclared
import is an ``ImportError`` waiting for CI.  The imports are read with
``ast`` (nothing is executed):

* the package and the examples may import only runtime dependencies;
* tests, the benchmark harness and the perf benchmark may also import the
  ``test`` extra.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "pyproject.toml"

RUNTIME_TREES = ("src/repro", "examples")
TEST_TREES = ("tests", "perfbench", "benchmarks")


def _dist_name(requirement: str) -> str:
    """``"pytest-benchmark>=4"`` -> ``"pytest_benchmark"`` (import spelling)."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    return re.sub(r"[-.]+", "_", name).lower()


def _manifest():
    return tomllib.loads(MANIFEST.read_text())


def _declared(extra=None):
    project = _manifest()["project"]
    requirements = list(project["dependencies"])
    if extra is not None:
        requirements += project["optional-dependencies"][extra]
    return {_dist_name(r) for r in requirements}


def _is_first_party(name: str, tree: Path) -> bool:
    return (name == "repro"
            or (ROOT / name).is_dir()
            or (tree / name).exists()
            or (tree / f"{name}.py").exists())


def third_party_imports(relative: str):
    """``{top-level module: [files importing it]}`` for one source tree."""
    tree = ROOT / relative
    found = {}
    for path in sorted(tree.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if (top in sys.stdlib_module_names
                        or _is_first_party(top, tree)):
                    continue
                found.setdefault(top, []).append(
                    str(path.relative_to(ROOT)))
    return found


def test_version_is_read_from_the_package():
    manifest = _manifest()
    assert manifest["project"]["dynamic"] == ["version"]
    assert manifest["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_package_imports_exactly_the_runtime_dependencies():
    assert set(third_party_imports("src/repro")) == _declared()


@pytest.mark.parametrize("relative", RUNTIME_TREES + TEST_TREES)
def test_every_third_party_import_is_declared(relative):
    allowed = _declared("test" if relative in TEST_TREES else None)
    undeclared = {name: files
                  for name, files in third_party_imports(relative).items()
                  if name not in allowed}
    assert not undeclared, (
        f"imports in {relative}/ missing from pyproject.toml: {undeclared}")
