"""Self-tests of the benchmark's own rules: the percentile rule, self-time
accounting and open-loop latency from the due time."""

import time
from types import SimpleNamespace

import pytest

from perfbench import harness, layers, served_skewed


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #
def test_p90_trusted_with_ten_samples_beyond_it():
    samples = [float(i) for i in range(110)]
    value, trusted = harness.tail_percentile(samples)
    assert value == pytest.approx(98.1)
    assert sum(1 for s in samples if s > value) == 11
    assert trusted


def test_p90_flagged_with_fewer_than_ten_samples_beyond_it():
    samples = [float(i) for i in range(50)]
    value, trusted = harness.tail_percentile(samples)
    assert sum(1 for s in samples if s > value) == 5
    assert not trusted


def test_p90_flagged_when_ties_leave_nothing_beyond_it():
    value, trusted = harness.tail_percentile([1.0] * 500)
    assert value == 1.0
    assert not trusted


def test_percentile_interpolates_linearly():
    assert harness.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert harness.percentile([7.0], 0.9) == 7.0


def test_steady_summary_reads_each_case_median():
    window = harness.Window()
    for _ in range(20):
        for label, latency in (("a", 1.0), ("b", 2.0), ("c", 3.0),
                               ("d", 4.0), ("e", 5.0)):
            window.record_success(label, latency, None)
    # a slow spell over 16 of case e's 36 repeats leaves its median but
    # carries the raw p90
    for _ in range(16):
        window.record_success("e", 50.0, None)
    summary = window.steady_summary()
    assert summary["op_p50_s"] == 3.0
    assert summary["op_p90_s"] == pytest.approx(4.6)
    assert summary["ops_per_s"] == pytest.approx(5 / 15.0)
    assert summary["p90_trusted"]       # the 36 operations of case e
    assert window.latency_summary()["op_p90_s"] == 50.0


def test_steady_summary_flags_p90_of_a_single_case():
    window = harness.Window()
    for _ in range(30):
        window.record_success("a", 1.0, None)
    summary = window.steady_summary()
    assert summary["op_p90_s"] == 1.0
    assert not summary["p90_trusted"]


def test_end_to_end_timings_are_scaled_to_the_reference_host_speed():
    from perfbench import run

    window = harness.Window()
    for label in "ab":
        window.record_success(label, 0.1, None)
    window.extras["modelled_gstencil_per_s"] = 1.0
    window.probes = [harness.PROBE_REFERENCE_S / 2] * 3     # host 2x fast
    assert window.host_speed() == pytest.approx(2.0)
    values = run.end_to_end(window, setup_s=1.0)
    assert values["setup_s"] == pytest.approx(2.0)
    assert values["op_p50_s"] == pytest.approx(0.2)
    assert values["ops_per_s"] == pytest.approx(5.0)
    assert harness.Window().host_speed() == 1.0


def test_closed_loop_probes_the_host_after_each_pass():
    cycle = [(label, lambda: None, lambda result: None) for label in "ab"]
    window = harness.closed_loop(cycle, seconds=0.0, min_ops=5)
    assert len(window.probes) == 3
    assert all(probe > 0 for probe in window.probes)


def test_closed_loop_runs_whole_passes_until_min_ops():
    calls = []
    cycle = [(label, lambda label=label: calls.append(label) or label,
              lambda result: None) for label in "abc"]
    window = harness.closed_loop(cycle, seconds=0.0, min_ops=7)
    assert calls == list("abc") * 3
    assert window.completed == {"a": 3, "b": 3, "c": 3}
    assert window.attempted == 9 and window.failed == 0


def test_closed_loop_counts_oracle_mismatches_and_exceptions():
    def boom():
        raise RuntimeError("no")

    cycle = [("ok", lambda: 1, lambda r: None),
             ("wrong", lambda: 2, lambda r: "mismatch"),
             ("raises", boom, lambda r: None)]
    window = harness.closed_loop(cycle, seconds=0.0, min_ops=2)
    assert window.attempted == 6
    assert window.failed == 4
    assert len(window.latencies) == 2


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def span(name, span_id, parent, start, end):
    return SimpleNamespace(name=name, span_id=span_id, parent_id=parent,
                           start_seconds=start, end_seconds=end, attrs={})


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("op", "1", None, 0.0, 10.0),
        span("a", "2", "1", 1.0, 4.0),
        span("b", "3", "1", 3.0, 5.0),      # overlaps a: union is 1..5
        span("c", "4", "1", 9.0, 12.0),     # runs past its parent
        span("d", "5", "2", 1.5, 2.0),
    ]
    own = layers.self_times(spans)
    assert own["1"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["2"] == pytest.approx(3.0 - 0.5)
    assert own["3"] == pytest.approx(2.0)
    profile = layers.layer_profile(spans)
    assert profile["op"].inclusive_s == pytest.approx(10.0)
    assert profile["a"].count == 1
    uncovered, total = layers.unaccounted(spans)
    assert (uncovered, total) == (pytest.approx(5.0), pytest.approx(10.0))


def test_self_times_of_a_tree_add_up_to_the_root():
    from repro import Tracer

    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("outer"):
            time.sleep(0.002)
            with tracer.span("inner"):
                time.sleep(0.002)
        time.sleep(0.001)
    spans = tracer.spans()
    own = layers.self_times(spans)
    root = next(s for s in spans if s.name == "op")
    assert sum(own.values()) == pytest.approx(root.duration_seconds())


def test_spans_around_wraps_and_restores():
    from repro import Tracer

    class Target:
        def work(self, x):
            return x + 1

    original = Target.work
    tracer = Tracer()
    with layers.spans_around(Target, "work", tracer, "target.work"):
        with tracer.span("op"):
            assert Target().work(1) == 2
    assert Target.work is original
    names = {s.name: s for s in tracer.spans()}
    assert names["target.work"].parent_id == names["op"].span_id


# ---------------------------------------------------------------------- #
# open-loop latency is measured from the due time
# ---------------------------------------------------------------------- #
class _Handle:
    def __init__(self, result):
        self._result = result

    def done(self):
        return True

    def result(self, timeout=None):
        return self._result


class _StallingServer:
    """Answers instantly, but the first submission stalls the caller."""

    SERVICE = 0.001

    def __init__(self, stall):
        self.stall = stall
        self.calls = 0

    def submit_problem(self, problem):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        run = SimpleNamespace(points_updated=1.0, elapsed_seconds=1.0)
        return _Handle(SimpleNamespace(
            output=None, run=run, queue_wait_seconds=0.0,
            service_seconds=self.SERVICE, batch_size=1))


def test_open_loop_latency_counts_the_stall_from_the_due_time(monkeypatch):
    case = SimpleNamespace(label="k", problem=None, cells=1,
                           verify=lambda output: None)
    inputs = served_skewed.Inputs(cases=[case], late={}, seed=0)
    state = served_skewed.State(inputs=inputs, session=None,
                                server=_StallingServer(stall=0.05))
    # four requests due 10 ms apart; the first submission stalls 50 ms
    monkeypatch.setattr(served_skewed, "schedule",
                        lambda *a, **k: [(0.01 * i, 0) for i in range(4)])
    window = served_skewed.open_loop(state, seconds=0.04, salt=0)
    assert window.attempted == 4 and window.failed == 0
    latencies = window.latencies
    # the second request was due 10 ms in but could only be sent after the
    # 50 ms stall: its latency carries the ~40 ms it waited to be sent
    assert latencies[0] >= 0.05
    assert latencies[1] >= 0.04 - 0.002
    assert latencies[3] >= 0.02 - 0.002
    assert window.extras["loadgen.late_p90_s"] >= 0.02
