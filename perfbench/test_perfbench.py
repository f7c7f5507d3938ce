"""Self-tests of the benchmark at tiny input sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
from contextlib import redirect_stdout

import pytest

import bench_layers
import bench_workloads
import probe
from bench_layers import LAYERS, Tracer, installed, layer_times, per_layer_metric_units, wrapped_bindings

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


class TinyE1(bench_workloads.PaperE1):
    profile = bench_workloads.experiments.TINY


class TinyServe(bench_workloads.ServeDrDaily):
    n_buildings = 4
    days = 1


class TinyPlanner(bench_workloads.PlannerDay):
    horizon = 1


class FailingPlanner(TinyPlanner):
    """A planner day whose output check always fails."""

    def check(self, state, result, probes=None):
        out = super().check(state, result, probes)
        out.problems.append("deliberately failed check")
        out.failed = out.attempted
        return out


TINY = {w.name: w for w in (TinyE1(), TinyServe(), TinyPlanner())}


def run_tiny(workload, trace, monkeypatch, tmp_path):
    """Run ``workload`` through ``run.main``; returns the exit code and result."""
    monkeypatch.setitem(bench_workloads.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", workload.name, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert per_layer_metric_units() == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(bench_workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch, tmp_path):
    code, result = run_tiny(TINY[name], trace, monkeypatch, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # TINY e1 trains too little to be sure of the paper's ordering, so only
    # the report's consistency is asserted, not that its check passes.
    assert code == (0 if result["correct"] else 1)
    assert result["correct"] == (result["failed"] == 0)
    if name != "paper-e1":
        assert result["correct"]
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{name}-seed5-trace{trace}.json").read_text())
    assert record["seed"] == 5
    assert wrapped_bindings() == []


def test_a_failed_check_is_reported_with_every_metric(monkeypatch, tmp_path):
    code, result = run_tiny(FailingPlanner(), 0, monkeypatch, tmp_path)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_counts_on_a_tiny_serve_replay():
    workload = TinyServe()
    inputs = workload.make_inputs(1)
    n_ticks, n_requests = len(inputs[2]), int(inputs[2].sum())
    metrics, outcomes, tracer = run.measure_traced(workload, inputs, "t")
    assert metrics["sim.steps"] == metrics["serve.ticks"] == n_ticks
    assert metrics["sim.env_steps"] == 4 * n_ticks
    assert metrics["serve.requests"] == metrics["core.select_actions_rows"] == n_requests
    assert metrics["env.builds"] >= 4 and metrics["sim.builds"] == 1
    assert metrics["weather.forecast_noise_calls"] >= 4 * n_ticks
    assert 0 <= metrics["sim.step_self_s"] <= metrics["sim.step_s"]
    assert all(not o.problems for o in outcomes)


def test_self_time_is_busy_time_minus_child_coverage():
    spans = [
        # (id, parent, name, start, end)
        (0, None, "a", 0.0, 10.0),
        (1, 0, "b", 1.0, 4.0),
        (2, 0, "c", 3.0, 6.0),   # overlaps b: children cover [1, 6]
        (3, 2, "b", 3.5, 4.5),   # grandchild: covers part of c, not of a
        (4, None, "d", 20.0, 25.0),
        (5, 4, "d", 21.0, 22.0),  # recursion: busy time counts d once
        (6, 0, "e", 9.0, 12.0),  # runs past its parent: clipped to [9, 10]
    ]
    times = layer_times(spans, hot_cover={0: 0.5})
    assert times["a"] == pytest.approx((10.0, 10.0 - (5.0 + 1.0) - 0.5, 1))
    assert times["b"] == pytest.approx((3.0 + 1.0, 3.0 + 1.0, 2))
    assert times["c"] == pytest.approx((3.0, 3.0 - 1.0, 1))
    assert times["d"] == pytest.approx((5.0, (5.0 - 1.0) + 1.0, 2))
    assert times["e"] == pytest.approx((3.0, 3.0, 1))


def test_wrappers_restore_the_original_callables():
    from repro.env import hvac_env
    from repro.eval import experiments
    from repro.weather import forecast

    step, draw = hvac_env.HVACEnv.step, forecast.ForecastProvider.draw_noise
    evaluate = experiments.evaluate_controller
    assert wrapped_bindings() == []
    with pytest.raises(RuntimeError):
        with installed(Tracer("t")):
            bound = wrapped_bindings()
            assert "HVACEnv.step" in bound and "ForecastProvider.draw_noise" in bound
            assert "repro.eval.experiments.evaluate_controller" in bound
            assert "bench_workloads.evaluate_controller" in bound
            assert {t for layer in LAYERS for t in layer.targets} <= set(bound)
            raise RuntimeError("leave the block early")
    assert wrapped_bindings() == []
    assert hvac_env.HVACEnv.step is step
    assert forecast.ForecastProvider.draw_noise is draw
    assert experiments.evaluate_controller is evaluate is bench_workloads.evaluate_controller


def test_hot_calls_are_charged_to_the_innermost_span():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer("t", clock=lambda: next(ticks))
    outer = tracer.wrap(bench_layers.Layer("o", "m", ("f",), "o_calls"), lambda: leaf())
    leaf = tracer.wrap(bench_layers.Layer("h", "m", ("g",), "h_calls", hot=True), lambda: None)
    outer()
    times = layer_times(tracer.spans, tracer.hot_cover)
    assert tracer.hot["h"] == [1, 1.0]
    assert times["o"] == (3.0, 2.0, 1)


def test_rate_is_work_over_the_median_operation():
    Out = bench_workloads.Outcome
    outcomes = [Out(attempted=1, env_steps=100, requests=10) for _ in range(3)]
    assert run.rate(outcomes, [1.0, 4.0, 2.0], "env_steps") == 100 / 2.0
    assert run.rate(outcomes, [1.0, 4.0, 2.0], "requests") == 10 / 2.0
    outcomes.append(Out(attempted=1, env_steps=99, requests=10))
    with pytest.raises(RuntimeError):
        run.rate(outcomes, [1.0] * 4, "env_steps")


def test_reference_seconds_scale_each_stretch_by_its_local_probes(monkeypatch):
    monkeypatch.setattr(probe, "WINDOW", 0)
    monkeypatch.setattr(probe, "REFERENCE_S", 1.0)
    probes = probe.Probes()
    # Probes of 1 s, 2 s, 2 s around stretches of 3 s and 4 s.
    probes.starts, probes.ends = [0.0, 4.0, 10.0], [1.0, 6.0, 12.0]
    probes.times = [1.0, 2.0, 2.0]
    assert probes.stretches().tolist() == [3.0, 4.0]
    assert probes.program_s() == 7.0
    # The first stretch's probes take 1.5 s at the median, the second's 2 s.
    assert probes.reference_s() == pytest.approx(3.0 / 1.5 + 4.0 / 2.0)
    assert probes.within([0.5, 3.5, 3.5], [7.0, 12.0, 9.0]).tolist() == [2.0, 4.0, 2.0]


def test_probes_interrupt_a_timed_block_and_stop_after_it():
    import time

    with probe.Probes() as probes:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    n = len(probes.starts)
    assert n >= 5
    assert 0 < probes.program_s() < 0.3 < probes.ends[-1] - probes.starts[0]
    assert probes.reference_s() > 0
    time.sleep(0.1)
    assert len(probes.starts) == n
