"""The names the benchmark in perfbench/ reads from leasesim.

perfbench records the backend in every report and times the slot loop by
wrapping simulator.get_loop. Should one of those names go, every
benchmark workload would fail while the rest of this suite still passed.
"""
import importlib.util
from pathlib import Path

from leasesim import _kernels, simulator
from leasesim.core import QueueState
from leasesim.environment import ScenarioConfig, draw_realization
from leasesim.policies import parse_policy
from leasesim.simulator import default_params, run, step

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_perfbench_records_the_python_loop():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    record = module.environment_record()
    assert record["backend"] == "python"
    assert record["numba_importable"] is False


def test_get_loop_with_one_argument_is_the_loop_runs_and_step_use(monkeypatch):
    """perfbench's tracer calls simulator.get_loop with one argument and
    counts a loop call's slots from its fifth argument, the arrival
    column: get_loop(None) is the loop that runs and step call."""
    loop = simulator.get_loop(None)
    assert loop is _kernels._slot_loop
    slots = []

    def traced_get_loop(backend=None):
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
