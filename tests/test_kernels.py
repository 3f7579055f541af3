"""Backend selection and numba/python loop equivalence.

The compiled loop and the plain-python loop must produce bit-identical
traces for every policy kind; the simulator treats them as interchangeable.
"""
import numpy as np
import pytest

from leasesim import _kernels, simulator
from leasesim.core import ConfigError, QueueState
from leasesim.environment import ScenarioConfig, draw_realization
from leasesim.policies import PolicyInput, decide, parse_policy
from leasesim.simulator import TRACE_COLUMNS, default_params, run

ALL_POLICIES = [
    "dsf",
    "dsf_exact_argmin",
    "periodic:3",
    "greedy",
    "price_only:8",
    "queue_threshold:5",
    "myopic",
]


def test_resolve_backend_explicit():
    assert _kernels.resolve_backend("python") == "python"
    if _kernels.HAVE_NUMBA:
        assert _kernels.resolve_backend("numba") == "numba"
        assert _kernels.resolve_backend("auto") == "numba"


def test_resolve_backend_env(monkeypatch):
    monkeypatch.setenv(_kernels.ENV_VAR, "python")
    assert _kernels.resolve_backend() == "python"
    monkeypatch.delenv(_kernels.ENV_VAR)
    assert _kernels.resolve_backend() in ("numba", "python")


def test_resolve_backend_rejects_junk():
    with pytest.raises(ConfigError, match="backend"):
        _kernels.resolve_backend("cuda")


def test_get_loop_python_is_uncompiled():
    assert _kernels.get_loop("python") is _kernels._slot_loop


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
def test_get_loop_numba_is_compiled():
    assert _kernels.get_loop("numba") is _kernels._slot_loop_njit


def test_policy_codes_cover_all_kinds():
    assert set(_kernels.POLICY_CODES) == {
        "dsf",
        "dsf_exact_argmin",
        "periodic",
        "greedy",
        "price_only",
        "queue_threshold",
        "myopic",
    }


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_backends_bit_identical(policy):
    scenario = ScenarioConfig(horizon_slots=800, initial_backlog=2, seed=11)
    spec = parse_policy(policy)
    params = default_params(scenario, v=5.0, eps_d=1.0)
    a = run(scenario, spec, params, backend="python")
    b = run(scenario, spec, params, backend="numba")
    for name in TRACE_COLUMNS:
        assert np.array_equal(a.column(name), b.column(name)), name


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_array_path_matches_list_path(monkeypatch, policy):
    """The numba path hands the loop numpy arrays, the python path lists.

    Drive the plain loop down the array path too: every column must come
    back with the same dtype and the same bytes.
    """
    scenario = ScenarioConfig(horizon_slots=800, initial_backlog=2, seed=11)
    spec = parse_policy(policy)
    params = default_params(scenario, v=5.0, eps_d=0.5)
    want = run(scenario, spec, params, backend="python")
    monkeypatch.setattr(simulator, "resolve_backend", lambda backend=None: "numba")
    monkeypatch.setattr(simulator, "get_loop", lambda backend=None: _kernels._slot_loop)
    got = run(scenario, spec, params)
    for name in TRACE_COLUMNS:
        assert got.column(name).dtype == want.column(name).dtype, name
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


def test_kernel_matches_decide_slot_by_slot():
    """The vectorized loop must reproduce the scalar decide() verdicts.

    Walk a real trace and re-derive each slot's desired decision from the
    recorded pre-queue state and market draw.
    """
    scenario = ScenarioConfig(horizon_slots=400, initial_backlog=1, seed=3)
    realization = draw_realization(scenario)
    params = default_params(scenario, v=5.0, eps_d=1.0)
    for label in ALL_POLICIES:
        spec = parse_policy(label)
        trace = run(scenario, spec, params, backend="python")
        slot = trace.column("t")
        for i in range(len(trace)):
            obs = realization.observation(i)
            inp = PolicyInput(
                state=QueueState(trace.column("q_before")[i], trace.column("z_before")[i]),
                slot_index=int(slot[i]),
                realized_price_ris=obs.price_ris,
                realized_price_spectrum=obs.price_spectrum,
                avail_ris=obs.avail_ris,
                avail_spectrum=obs.avail_spectrum,
                params=params,
            )
            want = decide(spec, inp)
            assert trace.column("x_desired")[i] == want.x, (label, i)
            assert trace.column("y_desired")[i] == want.y, (label, i)
