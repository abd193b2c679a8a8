"""A tiny run of every workload, untraced and traced, through the command
line entry point: every result must be correct and carry exactly the
metrics ``BENCHMARK.json`` declares, and a traced run must carry its
companion's layers."""

import json

import pytest

from perfbench import compile_cold, harness, run, sharded_numpy


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "MIN_OPS", 1)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "SETUP_MIN_SECONDS", 0.0)
    monkeypatch.setattr(compile_cold, "KERNELS",
                        ("heat_diffusion/heat-1d", "heat_diffusion/heat-2d"))
    monkeypatch.setattr(sharded_numpy, "KERNELS",
                        (("Heat-2D", (96, 96), 4),))
    monkeypatch.setattr(sharded_numpy, "PROGRAM",
                        ("chain:Heat-2D>Box-2D9P", (96, 96), 2))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, line
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = harness.metric_units(harness.load_definition(), bool(trace))
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
        == declared


def test_workloads_match_the_definition():
    definition = harness.load_definition()
    assert [entry["name"] for entry in definition["workloads"]] \
        == list(run.WORKLOADS)
    layer_names = harness.metric_units(definition, trace=True)
    for workload in run.WORKLOADS:
        companion, taken = run.COMPANIONS[workload]
        assert companion not in run.WORKLOADS
        assert set(taken) <= set(layer_names)


@pytest.mark.parametrize("workload, layer", [
    ("sweep-tcu", "core.search.candidates"),
    ("sharded-numpy", "server.coalesce_ratio"),
])
def test_traced_run_measures_the_companion_layers(workload, layer, capsys):
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
              "--trace", "1"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is True, line
    assert line["metrics"][layer]["value"] > 0
