"""Backend selection and numba/python loop equivalence.

The compiled loop and the plain-python loop must produce bit-identical
traces for every policy kind; the simulator treats them as interchangeable.
"""
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leasesim import _kernels, simulator
from leasesim.core import ConfigError, ControlParams, QueueState, advance_virtual_queue
from leasesim.environment import Realization, ScenarioConfig, draw_realization
from leasesim.policies import PolicyInput, decide, parse_policy
from leasesim.simulator import TRACE_COLUMNS, Trace, _market_columns, _run_loop, default_params, run, step

ALL_POLICIES = [
    "dsf",
    "dsf_exact_argmin",
    "periodic:3",
    "greedy",
    "price_only:8",
    "queue_threshold:5",
    "myopic",
]


def test_resolve_backend_explicit(monkeypatch):
    monkeypatch.setenv(_kernels.ENV_VAR, "Python")
    assert _kernels.resolve_backend() == "python"
    monkeypatch.setenv(_kernels.ENV_VAR, "auto")
    assert _kernels.resolve_backend() == ("numba" if _kernels.HAVE_NUMBA else "python")
    monkeypatch.setenv(_kernels.ENV_VAR, "numba")
    if _kernels.HAVE_NUMBA:
        assert _kernels.resolve_backend() == "numba"
    else:
        with pytest.raises(ConfigError, match="^LEASESIM_BACKEND=numba but numba is not importable$"):
            _kernels.resolve_backend()


def test_resolve_backend_env(monkeypatch):
    monkeypatch.setenv(_kernels.ENV_VAR, "python")
    assert _kernels.resolve_backend() == "python"
    monkeypatch.delenv(_kernels.ENV_VAR)
    assert _kernels.resolve_backend() in ("numba", "python")


def test_resolve_backend_rejects_junk(monkeypatch):
    monkeypatch.setenv(_kernels.ENV_VAR, "cuda")
    with pytest.raises(ConfigError, match="^LEASESIM_BACKEND must be auto, numba or python, got 'cuda'$"):
        _kernels.resolve_backend()


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
def test_backends_bit_identical(monkeypatch, policy):
    scenario = ScenarioConfig(horizon_slots=800, initial_backlog=2, seed=11)
    spec = parse_policy(policy)
    params = default_params(scenario, v=5.0, eps_d=1.0)
    monkeypatch.setenv(_kernels.ENV_VAR, "python")
    a = run(scenario, spec, params)
    monkeypatch.setenv(_kernels.ENV_VAR, "numba")
    b = run(scenario, spec, params)
    for name in TRACE_COLUMNS:
        assert np.array_equal(a.column(name), b.column(name)), name


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_array_path_matches_list_path(monkeypatch, policy):
    """The numba path hands the loop numpy arrays. The python path hands it
    lists to read, a list for the wish, and memoryviews of the q_after and
    z_after arrays to store into.

    Drive the plain loop down the array path too: every column must come
    back with the same dtype and the same bytes.
    """
    scenario = ScenarioConfig(horizon_slots=800, initial_backlog=2, seed=11)
    spec = parse_policy(policy)
    params = default_params(scenario, v=5.0, eps_d=0.5)
    monkeypatch.setenv(_kernels.ENV_VAR, "python")
    want = run(scenario, spec, params)
    monkeypatch.setattr(simulator, "resolve_backend", lambda: "numba")
    monkeypatch.setattr(simulator, "get_loop", lambda backend: _kernels._slot_loop)
    got = run(scenario, spec, params)
    for name in TRACE_COLUMNS:
        assert got.column(name).dtype == want.column(name).dtype, name
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


def test_python_market_columns_hold_only_floats():
    """The python loop adds arrivals to the float q and compares joint
    prices with floats, so both lists hold floats, never ints."""
    realization = draw_realization(ScenarioConfig(horizon_slots=300, arrival_prob=0.5, seed=4))
    (arrival, joint_price, _), _ = _market_columns(realization, python=True)
    assert type(arrival) is list and type(joint_price) is list
    assert {type(value) for value in arrival} == {float}
    assert {type(value) for value in joint_price} == {float}
    assert arrival == realization.arrival.tolist()


def test_python_loop_stores_floats_through_memoryviews(monkeypatch):
    """On the python backend the loop's last two arguments are memoryviews
    of the q_after and z_after arrays the trace returns, so the floats go
    straight into them; only the wish goes to a list."""
    calls = []

    def loop(*args):
        calls.append(args)
        return _kernels._slot_loop(*args)

    monkeypatch.setenv(_kernels.ENV_VAR, "python")
    monkeypatch.setattr(simulator, "get_loop", lambda backend: loop)
    scenario = ScenarioConfig(horizon_slots=200, initial_backlog=3, seed=8)
    trace = run(scenario, parse_policy("dsf"), default_params(scenario, v=2.0, eps_d=1.0))
    [args] = calls
    wish, q_view, z_view = args[-3:]
    assert type(wish) is list
    assert type(q_view) is memoryview and q_view.obj is trace.column("q_after")
    assert type(z_view) is memoryview and z_view.obj is trace.column("z_after")


@pytest.mark.parametrize("arrival", [2**53 + 1, 2**62], ids=["2**53+1", "2**62"])
def test_huge_arrivals_give_the_same_bytes_on_every_path(arrival):
    """q + float(a) is q + a bit for bit for any int64 a: with arrivals that
    a float cannot hold exactly, the list path, the array path and a chain
    of step calls agree, and q_before is Python's q + arrival."""
    n = 5
    realization = Realization(
        arrival=np.array([arrival, 0, 1, arrival, 0], dtype=np.int64),
        price_ris=np.full(n, 2.0),
        price_spectrum=np.full(n, 3.0),
        avail_ris=np.array([1, 1, 0, 1, 1], dtype=np.int64),
        avail_spectrum=np.ones(n, dtype=np.int64),
    )
    spec = parse_policy("greedy")
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    loop_args = (realization, 0.5, 0.0, 1, False, spec, params)
    lists = _run_loop(_kernels._slot_loop, _market_columns(realization, python=True), *loop_args)
    arrays = _run_loop(_kernels._slot_loop, _market_columns(realization, python=False), *loop_args)
    for name in TRACE_COLUMNS:
        assert arrays[name].dtype == lists[name].dtype, name
        assert arrays[name].tobytes() == lists[name].tobytes(), name

    trace = Trace(lists)
    state = QueueState(0.5, 0.0)
    for i in range(n):
        want_q_before = state.q + int(realization.arrival[i])
        state, record = step(state, realization.observation(i), spec, params, t=1 + i)
        assert record == trace.record(i), i
        assert np.float64(record.q_before).tobytes() == np.float64(want_q_before).tobytes(), i
        assert lists["q_before"][i].tobytes() == np.float64(want_q_before).tobytes(), i


def assert_core_recurrence(trace, eps_d, freeze):
    """Slot by slot, the trace's queues are exactly core's recurrences.

    q_after is max(q_before - r, 0) and z_after is
    advance_virtual_queue(z_before, r, eps), with eps zeroed on an empty
    queue when z is frozen; compared bit for bit.
    """
    q_before, z_before, r = (trace.column(name).tolist() for name in ("q_before", "z_before", "r"))
    want_q, want_z = [], []
    for qb, zb, served in zip(q_before, z_before, r):
        eps = 0.0 if freeze and qb == 0.0 else eps_d
        want_q.append(max(qb - served, 0.0))
        want_z.append(advance_virtual_queue(zb, served, eps))
    assert np.array(want_q).tobytes() == trace.column("q_after").tobytes()
    assert np.array(want_z).tobytes() == trace.column("z_after").tobytes()


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_loop_follows_core_recurrence(policy, freeze):
    scenario = ScenarioConfig(
        horizon_slots=600, initial_backlog=2, seed=29, freeze_z_when_empty=freeze
    )
    params = default_params(scenario, v=3.0, eps_d=0.7)
    trace = run(scenario, parse_policy(policy), params)
    assert_core_recurrence(trace, params.eps_d, freeze)


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
        trace = run(scenario, spec, params)
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


def test_loop_outputs_match_loop_dtypes():
    """The numba branch allocates one array per _LOOP_DTYPES entry and passes
    them as the loop's trailing arguments, after `threshold`. Without numba,
    test_backends_bit_identical is skipped; this still pins the count and
    order that branch relies on."""
    names = list(inspect.signature(_kernels._slot_loop).parameters)
    outputs = names[names.index("threshold") + 1:]
    assert outputs == ["x_desired", "q_after", "z_after"]
    assert len(outputs) == len(simulator._LOOP_DTYPES)
    assert simulator._LOOP_DTYPES[0] is np.bool_


# flags: 2 is neither 0 nor 1 and blocks the lease; 1 is drawn twice as
# often, so leases, and the clamps after them, are common
flags = st.sampled_from([1, 0, 1, 2])
market_slots = st.tuples(
    st.integers(0, 2),  # arrival
    st.floats(0.0, 20.0),  # price_ris
    st.floats(0.0, 20.0),  # price_spectrum
    flags,  # avail_ris
    flags,  # avail_spectrum
)
FREE_LEASE = [(0, 1.0, 1.0, 1, 1)]


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(ALL_POLICIES),
    freeze=st.booleans(),
    slots=st.lists(market_slots, min_size=1, max_size=12),
    q0=st.floats(0.0, 4.0),
    z0=st.floats(0.0, 40.0),
    t0=st.integers(1, 10**6),
    v=st.floats(0.1, 4.0),
    eps_d=st.floats(0.1, 3.0),
)
# a lease that both clamps cut back, and a lease on an empty queue
@example(label="greedy", freeze=False, slots=FREE_LEASE, q0=0.25, z0=0.5, t0=1, v=1.0, eps_d=1.0)
@example(label="dsf", freeze=True, slots=FREE_LEASE, q0=0.0, z0=30.0, t0=1, v=0.1, eps_d=1.0)
def test_kernel_contract(label, freeze, slots, q0, z0, t0, v, eps_d):
    """On any short market and start: r is the wish masked by both flags
    and is the lease the loop took, both queues stay >= 0, the list and
    array paths give the same bytes, and the trace is a chain of step
    records."""
    arrival, price_ris, price_spectrum, avail_ris, avail_spectrum = zip(*slots)
    realization = Realization(
        arrival=np.array(arrival, dtype=np.int64),
        price_ris=np.array(price_ris),
        price_spectrum=np.array(price_spectrum),
        avail_ris=np.array(avail_ris, dtype=np.int64),
        avail_spectrum=np.array(avail_spectrum, dtype=np.int64),
    )
    spec = parse_policy(label)
    params = ControlParams(v=v, eps_d=eps_d, expected_price_ris=5.5, expected_price_spectrum=5.5)
    loop_args = (realization, q0, z0, t0, freeze, spec, params)
    columns = _run_loop(_kernels._slot_loop, _market_columns(realization, python=True), *loop_args)

    joint = (realization.avail_ris == 1) & (realization.avail_spectrum == 1)
    assert columns["r"].dtype == columns["x_desired"].dtype == np.int64
    assert columns["r"].tolist() == (columns["x_desired"] & joint).tolist()
    trace = Trace(columns)
    assert_core_recurrence(trace, eps_d, freeze)
    assert (columns["q_after"] >= 0.0).all() and (columns["z_after"] >= 0.0).all()

    arrays = _run_loop(_kernels._slot_loop, _market_columns(realization, python=False), *loop_args)
    for name in TRACE_COLUMNS:
        assert arrays[name].dtype == columns[name].dtype, name
        assert arrays[name].tobytes() == columns[name].tobytes(), name

    state = QueueState(q0, z0)
    for i in range(len(realization)):
        state, record = step(
            state, realization.observation(i), spec, params, t=t0 + i, freeze_z_when_empty=freeze
        )
        assert record == trace.record(i), i
        assert state == QueueState(record.q_after, record.z_after), i
