"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from leasesim import simulator  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_runs_one_tiny_op(name, tmp_path):
    wl = workloads.build(name, tiny=True)
    wl.setup(tmp_path)
    inputs = wl.make_input(workloads.market_seed(7, workloads.TIMED, 0))
    output, problems = wl.check(inputs, wl.op(inputs))
    assert problems == []
    assert output


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_goldens_match(name, tmp_path):
    golden = json.loads(run.GOLDENS.read_text())
    wl = workloads.build(name)
    wl.setup(tmp_path)
    for index, want in enumerate(golden["workloads"][name]):
        inputs = wl.make_input(workloads.market_seed(golden["seed"], workloads.GOLDEN, index))
        output, problems = wl.check(inputs, wl.op(inputs))
        assert problems == []
        assert run.digest(output) == want


def _wrapped_attributes():
    targets = [(module, attr) for module, attr, *_ in spans.TARGETS] + [(simulator, "get_loop")]
    return {(module.__name__, attr): getattr(module, attr) for module, attr in targets}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_op_restores_attributes_and_adds_up(name, tmp_path):
    before = _wrapped_attributes()
    wl = workloads.build(name, tiny=True)
    wl.setup(tmp_path)
    tracer = spans.Tracer()
    inputs = wl.make_input(workloads.market_seed(7, workloads.TIMED, 0))
    _, problems = wl.check(inputs, tracer.run_op(0, wl.op, inputs))
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)
    assert problems == []
    assert spans.nesting_problems(tracer.spans) == []
    metrics = spans.layer_metrics(tracer.spans, {0: 1.0})
    assert spans.self_time_sum_ms(metrics) == pytest.approx(metrics["bench.traced_op_ms"], rel=1e-9)
    assert metrics["environment.draw_calls"] >= 1
    assert metrics["kernels.loop_calls"] >= 1


def test_tracer_restores_attributes_when_the_op_raises():
    before = _wrapped_attributes()

    def broken():
        simulator.step(None, None, None, None)

    with pytest.raises(AttributeError):
        spans.Tracer().run_op(0, broken)
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize(
    "n, index", [(5, 2), (11, 5), (21, 10), (40, 29), (99, 88), (100, 89), (1000, 899)]
)
def test_tail_leaves_ten_samples_beyond_between_p50_and_p90(n, index):
    value, percentile = run.tail([float(i) for i in range(n)])
    assert value == float(index)
    assert percentile == pytest.approx(100.0 * (index + 1) / n)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_crn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
