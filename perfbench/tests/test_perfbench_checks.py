"""Every output check of the benchmark can fail, and failures are counted.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json

import pytest

import oracles
import run
import tracer
import workloads


class SmallFlood(workloads.FreshFlood):
    lanes = 4
    n = 200


class SmallPushSum(workloads.CycledPushSum):
    lanes = 2
    n = 24
    period = 4
    rounds = 400
    extra_edge_p = 0.1


def executed(workload, op):
    return workload.execute(workload.prepare(op))


def test_flood_check_passes_and_catches_a_perturbed_time():
    bench = SmallFlood(seed=3)
    op = bench.op(0)
    record = run.run_op(bench, op)
    assert record.errors == []
    times = executed(bench, op)
    times[1] += 1
    checked = bench.check(op, times, record.counters)
    assert any("lane 1" in error for error in checked.errors)


def test_flood_counter_check_catches_a_perturbed_counter():
    bench = SmallFlood(seed=3)
    op = bench.op(0)
    record = run.run_op(bench, op)
    counters = dict(record.counters)
    counters["engine.messages_delivered"] += 1
    checked = bench.check(op, executed(bench, op), counters)
    assert checked.errors == [
        f"engine.messages_delivered = {counters['engine.messages_delivered']!r}, "
        f"expected {counters['engine.messages_delivered'] - 1!r}"
    ]


def test_pushsum_check_passes_and_catches_a_perturbed_curve():
    bench = SmallPushSum(seed=2)
    bench.setup()
    record = run.run_op(bench, bench.op(0))
    assert record.errors == []
    curves = executed(bench, bench.op(0))
    curves[1][17] *= 1 + 1e-8
    errors = bench.check(0, curves, record.counters).errors
    assert len(errors) == 1 and "lane 1 round 17" in errors[0]


def test_pushsum_check_catches_an_unconverged_final_estimate():
    bench = SmallPushSum(seed=2)
    bench.setup()
    trace = bench.oracle()
    curves = trace.curves.copy()
    curves[0, -1] = bench.n + 1e-3
    errors = oracles.curve_errors(curves, curves, bench.n)
    assert errors == [
        f"lane 0: final estimate {curves[0, -1]!r} is not within 1e-06 of n={bench.n}"
    ]


class DefectCell(workloads.ZooObject):
    """The grid cell where CMM reports 11 nodes on a 12-node network."""

    def op(self, index):
        return "CMM", "edge-markov", 12, 19


def test_real_counting_defect_is_one_failed_operation():
    bench = DefectCell(seed=0)
    bench.setup()
    record = run.run_op(bench, bench.op(0))
    assert record.errors == ["count 11 != n=12"]
    assert record.label == "CMM on edge-markov(n=12, seed=19)"


def test_counting_check_catches_an_output_before_the_horizon():
    assert oracles.theorem1_horizon(13) == 2
    assert oracles.counting_errors(13, 13, 1) == [
        "output at round 1, before the Theorem 1 horizon 2"
    ]
    assert oracles.counting_errors(13, 13, 2) == []


class Exploding(workloads.ZooObject):
    def execute(self, prepared):
        raise RuntimeError("boom")


def test_an_exception_is_a_failed_operation_not_a_crash():
    bench = Exploding(seed=0)
    bench.setup()
    record = run.run_op(bench, bench.op(0))
    assert record.errors == ["RuntimeError: boom"]


def test_counter_repeats_must_be_exact():
    first = run.OpRecord("op", 0, 1.0, 1, [], {"engine.rounds": 5})
    again = run.OpRecord("op", 0, 1.0, 1, [], {"engine.rounds": 6})
    other = run.OpRecord("other", 1, 1.0, 1, [], {"engine.rounds": 7})
    assert run.repeat_errors([first, other]) == []
    assert run.repeat_errors([first, again]) == [
        "op: engine.rounds 6 on a repeat, 5 before"
    ]


def test_report_check_catches_a_failed_experiment_check(tmp_path):
    bench = workloads.ReportAll(seed=0)
    bench.setup()
    bench.workdir = tmp_path
    counters = {"experiments.run": len(bench.experiments),
                "experiments.passed": len(bench.experiments),
                "engine.rounds": 10}
    (tmp_path / "metrics.json").write_text(json.dumps({"counters": counters}))
    good = (0, "check: a: PASS\ncheck: b: PASS\n")
    assert bench.check(0, good, {}).errors == []
    bad = (1, "check: a: PASS\ncheck: b: FAIL\n")
    assert bench.check(0, bad, {}).errors == ["repro all exited 1", "failed b"]
    counters["engine.rounds"] = 11
    (tmp_path / "metrics.json").write_text(json.dumps({"counters": counters}))
    assert bench.check(0, good, {}).errors == [
        "engine.rounds = 11, expected 10"
    ]


def test_tracer_attributes_self_time_to_nested_layers():
    import time

    class Box:
        @staticmethod
        def inner():
            time.sleep(0.02)

        @staticmethod
        def outer():
            time.sleep(0.01)
            Box.inner()

    spans = tracer.LayerTracer(
        [tracer.Target("inner", Box, "inner"), tracer.Target("outer", Box, "outer")]
    )
    original = vars(Box)["outer"]
    with spans.installed():
        Box.outer()
    assert vars(Box)["outer"] is original
    assert spans.calls == {"inner": 1, "outer": 1}
    assert spans.self_s["outer"] == pytest.approx(0.01, abs=0.008)
    assert spans.total_s["outer"] == pytest.approx(0.03, abs=0.01)


def test_benchmark_json_lists_every_metric_the_run_emits():
    spec = run.load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "node_rounds_per_s", "peak_rss_mib"
    ]
    listed = {m["name"] for m in spec["per_layer"]}
    layers = {f"{t.layer}_s" for t in tracer.program_targets()}
    layers |= {f"{t.layer}_s" for t in tracer.experiment_targets()}
    assert layers <= listed
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
