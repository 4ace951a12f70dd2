"""Tests of the benchmark's own code, at tiny workload sizes."""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ravnest import modelcore, orchestrator, simnet  # noqa: E402

TINY = {
    "pipeline-deep": workloads.TrainWorkload(
        dataclasses.replace(workloads.PIPELINE_DEEP, k_target=320, kappa=80)
    ),
    "sync-average": workloads.TrainWorkload(
        dataclasses.replace(workloads.SYNC_AVERAGE, k_target=128)
    ),
    "ga-plan": workloads.GAWorkload(workloads.GASpec(n_pools=2, generations=10)),
}


def test_tiny_sizes_keep_the_workload_list():
    assert list(TINY) == list(workloads.WORKLOADS)


def test_benchmark_json_names_every_reported_metric():
    spec = run.load_spec()
    result = run.measure(TINY["sync-average"], seed=2, seconds=0.01, trace=True)
    result.pop("tracer")
    for trace in (False, True):
        final = run.report(result, spec, trace)
        assert final["correct"], final
        wanted = spec["per_layer" if trace else "end_to_end"]
        assert list(final["metrics"]) == [m["name"] for m in wanted]


@pytest.mark.parametrize("name", list(TINY))
def test_each_workload_runs_tiny_and_checks_out(name):
    result = run.measure(TINY[name], seed=3, seconds=0.01, trace=False)
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert result["metrics"]["work_per_s"] > 0 and result["metrics"]["setup_s"] > 0
    assert result["hashes"]
    again = run.measure(TINY[name], seed=3, seconds=0.01, trace=False)
    assert again["hashes"] == result["hashes"] and again["results"] == result["results"]


def test_untraced_path_sees_the_original_functions():
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in tracing._wrap_targets()}
    push, register = simnet.EventQueue.push, simnet.Network.register
    result = run.measure(TINY["sync-average"], seed=1, seconds=0.01, trace=True)
    assert result["tracer"].stats  # spans were recorded while installed
    after = {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in tracing._wrap_targets()}
    assert after == before
    assert simnet.EventQueue.push is push and simnet.Network.register is register
    assert modelcore.forward.__module__ == "ravnest.modelcore"
    assert not hasattr(modelcore.forward, "__wrapped__")
    assert not hasattr(orchestrator._Trainer._on_update, "__wrapped__")


def test_layer_self_times_sum_to_traced_wall_time():
    result = run.measure(TINY["pipeline-deep"], seed=1, seconds=0.01, trace=True)
    metrics = result["metrics"]
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + (tracing.OTHER,))
    assert metrics["other.self_s"] == 0.0
    assert total_self == pytest.approx(metrics["trace.wall_s"], rel=0.03)


def test_traced_run_splits_work_as_the_workloads_intend():
    deep = run.measure(TINY["pipeline-deep"], seed=1, seconds=0.01, trace=True)["metrics"]
    assert deep["multiring.self_s"] < 0.05 * deep["trace.wall_s"]
    assert deep["simnet.msgs.activation"] == deep["simnet.msgs.gradient"] > 0
    ga = run.measure(TINY["ga-plan"], seed=1, seconds=0.01, trace=True)["metrics"]
    busy = {layer for layer in tracing.LAYERS if ga[f"{layer}.self_s"] > 0}
    assert busy == {"clusterform"}
    assert ga["clusterform.evaluate.calls"] > 0 and 0 <= ga["clusterform.feasible_frac"] <= 1


def test_ring_and_drain_time_add_up_to_the_barrier_time():
    workload = TINY["sync-average"]
    result = run.measure(workload, seed=1, seconds=0.01, trace=True)
    r = result["results"]
    barrier = r["orchestrator.barrier_vs_frac"] * workload.op(workload.setup(1), 0).virtual_time
    assert r["multiring.ring_vs"] + r["orchestrator.drain_vs"] == pytest.approx(barrier, rel=1e-9)
    assert r["multiring.cost_ratio"] == pytest.approx(1.0, abs=0.01)
    assert result["metrics"]["multiring.handle.calls"] == 16 * 8 * 14  # cycles x C x 2(C-1)


def test_idle_frac_max_bounds_the_bubble_fraction():
    result = run.measure(TINY["pipeline-deep"], seed=1, seconds=0.01, trace=False)["results"]
    assert result["pipeline.bubble_fraction"] <= result["pipeline.idle_frac_max"] <= 1.0


def test_chrome_trace_has_one_pid_per_workload_and_one_tid_per_layer():
    tr = tracing.Tracer(max_spans=1000)
    state = TINY["sync-average"].setup(1)
    with tr:
        TINY["sync-average"].op(state, 0)
    events = json.loads(json.dumps(tr.chrome_events(7, "sync-average")))
    assert {e["pid"] for e in events} == {7}
    names = {e["args"]["name"]: e["tid"] for e in events if e["name"] == "thread_name"}
    assert list(names) == list(tracing.LAYERS) + [tracing.OTHER]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 1000
    assert all(e["tid"] == names[e["cat"]] and e["dur"] >= 0 for e in spans)


def _record(workload, seed, value, sha="a", trace=0):
    return {"workload": workload, "seed": seed, "trace": trace, "env": {},
            "metrics": {"work_per_s": value}, "results": {}, "hashes": {"metrics_sha256": sha}}


def test_compare_lists_result_differences_before_timings():
    spec = run.load_spec()
    parent = [_record("sync-average", s, 100.0 + s) for s in range(10)]
    change = [_record("sync-average", s, 200.0 + s, sha="b" if s == 3 else "a") for s in range(10)]
    out = io.StringIO()
    status = compare.compare(parent, change, spec, out)
    text = out.getvalue()
    assert status == 1
    assert text.index("seed 3: metrics_sha256 a -> b") < text.index("work_per_s")
    row = next(line for line in text.splitlines() if "work_per_s" in line)
    assert "100%" in row and " yes " in row and row.endswith("ok")


def test_compare_flags_a_regression_and_withholds_a_gain():
    spec = run.load_spec()
    parent = [_record("ga-plan", s, 10.0) for s in range(10)]
    change = [_record("ga-plan", s, 5.0 if s % 5 else 10.5) for s in range(10)]
    out = io.StringIO()
    assert compare.compare(parent, change, spec, out) == 1
    row = next(line for line in out.getvalue().splitlines() if "work_per_s" in line)
    assert " 20%" in row and " no " in row and "REGRESSION +50.0%" in row


def test_import_program_refuses_a_checkout_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit):
        run.import_program()
