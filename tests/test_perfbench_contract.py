"""The names the benchmark in perfbench/ reads from leasesim.

perfbench records the backend in every report and times the slot loop by
wrapping simulator.get_loop. Should one of those names go, every
benchmark workload would fail while the rest of this suite still passed.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from leasesim import _kernels, simulator
from leasesim.core import QueueState
from leasesim.environment import ScenarioConfig, draw_realization
from leasesim.policies import POLICY_KINDS, parse_policy
from leasesim.simulator import default_params, run, step

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench's module `name`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_records_the_python_loop():
    record = load("run").environment_record()
    assert record["backend"] == "python"
    assert record["numba_importable"] is False


def test_get_loop_with_one_argument_is_the_loop_runs_and_step_use(monkeypatch):
    """perfbench's tracer calls simulator.get_loop with one argument and
    counts a loop call's slots from its fifth argument, the arrival
    column: get_loop(key) is the loop that runs and step call."""
    get_loop = simulator.get_loop
    assert get_loop(("dsf", False)) is _kernels.get_loop(("dsf", False))
    slots = []

    def traced_get_loop(backend=None):
        loop = get_loop(backend)

        def traced(*args):
            slots.append(len(args[4]))
            return loop(*args)

        return traced

    monkeypatch.setattr(simulator, "get_loop", traced_get_loop)
    scenario = ScenarioConfig(horizon_slots=30, initial_backlog=2, seed=5)
    dsf, params = parse_policy("dsf"), default_params(scenario, v=1.0, eps_d=1.0)
    run(scenario, dsf, params)
    step(QueueState(2.0, 0.0), draw_realization(scenario).observation(0), dsf, params)
    assert slots == [30, 1]


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_every_loop_takes_the_arrival_column_fifth(kind, freeze):
    """perfbench counts a loop call's slots from args[4], so the loop of
    every kind, with z frozen or not, takes `arrival` fifth."""
    names = list(inspect.signature(simulator.get_loop((kind, freeze))).parameters)
    assert names[4] == "arrival"


def test_the_tracer_counts_one_one_slot_kernel_call_per_step():
    """Under perfbench's tracer, an online_oracle op makes exactly one
    1-slot kernels.loop span inside each simulator.step span."""
    spans, workloads = load("spans"), load("workloads")
    workload = workloads.build("online_oracle", tiny=True)
    scenario = workload.make_input(workloads.market_seed(7, workloads.TIMED, 0))
    tracer = spans.Tracer()
    tracer.run_op(0, workload.op, scenario)
    steps = [i for i, span in enumerate(tracer.spans) if span[spans.NAME] == "simulator.step"]
    loops = [span for span in tracer.spans if span[spans.NAME] == spans.LOOP_SPAN]
    assert len(steps) == workload.windows * workload.window_slots * len(workload.policies)
    assert [span[spans.PARENT] for span in loops] == steps
    assert [span[spans.WORK] for span in loops] == [1] * len(steps)
