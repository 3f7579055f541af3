"""Slot engine tests: full runs, single steps, and trace bookkeeping."""
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from leasesim.core import (
    ConfigError,
    ControlParams,
    QueueState,
    advance_data_queue,
    advance_virtual_queue,
)
from leasesim.environment import MarketObservation, Realization, ScenarioConfig, draw_realization
from leasesim.policies import parse_policy
from leasesim.simulator import (
    INT_TRACE_COLUMNS,
    TRACE_COLUMNS,
    SlotRecord,
    Trace,
    _run_loop,
    default_params,
    run,
    step,
)

DSF = parse_policy("dsf")
GREEDY = parse_policy("greedy")


def flat_market(price=5.5, arrival=1, avail=1):
    return MarketObservation(
        price_ris=price,
        price_spectrum=price,
        avail_ris=avail,
        avail_spectrum=avail,
        arrival=arrival,
    )


def test_run_nothing_to_send_costs_nothing():
    scenario = ScenarioConfig(horizon_slots=50, arrival_prob=0.0, initial_backlog=0)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    assert trace.column("cost").sum() == 0.0
    assert trace.column("r").sum() == 0
    assert trace.column("q_after")[-1] == 0.0


def test_run_greedy_clears_single_packet_at_first_slot():
    scenario = ScenarioConfig(
        horizon_slots=5,
        arrival_prob=0.0,
        initial_backlog=1,
        avail_prob_ris=1.0,
        avail_prob_spectrum=1.0,
    )
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    first = trace.record(0)
    assert first.t == 1
    assert first.r == 1
    assert first.cost == first.price_ris + first.price_spectrum
    assert first.q_after == 0.0
    assert trace.column("r").sum() == 1


def test_run_first_lease_under_saturated_deterministic_market():
    # Fixed price 5.5, one arrival per slot, everything available, v=1,
    # eps_d=1: threshold is q + z > 11. The virtual queue starts at zero
    # and accrues one slot behind the data queue, so q+z walks
    # 1,3,5,7,9,11 over slots 1..6 (11 is not strictly above 11) and the
    # first lease lands on slot 7.
    with pytest.warns(UserWarning, match="stability headroom"):
        scenario = ScenarioConfig(
            horizon_slots=10,
            arrival_prob=1.0,
            price_low=5.5,
            price_high=5.5,
            avail_prob_ris=1.0,
            avail_prob_spectrum=1.0,
        )
    trace = run(scenario, DSF, default_params(scenario, v=1.0, eps_d=1.0))
    desired = trace.column("x_desired")
    assert desired[:6].sum() == 0
    assert desired[6] == 1
    assert trace.record(6).t == 7


def test_step_hold_accrues_both_queues():
    params = ControlParams(v=1000.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    state, record = step(QueueState(0.0, 0.0), flat_market(), DSF, params)
    assert record.x_effective == 0 and record.cost == 0.0
    assert state.q == 1.0  # the arrival stays queued
    assert state.z == 1.0  # one slot of urgency accrued


def test_step_masking_is_atomic():
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    obs = MarketObservation(price_ris=2.0, price_spectrum=2.0, avail_ris=0, avail_spectrum=1, arrival=0)
    state, record = step(QueueState(50.0, 5.0), obs, GREEDY, params)
    assert (record.x_desired, record.y_desired) == (1, 1)
    assert (record.x_effective, record.y_effective) == (0, 0)
    assert record.cost == 0.0 and record.r == 0
    assert state.q == 50.0


@pytest.mark.parametrize("avail_ris,avail_spectrum", [(2, 1), (1, 2), (2, 2)])
def test_step_flag_other_than_one_blocks_the_lease(avail_ris, avail_spectrum):
    """Only a flag equal to 1 counts as available, whatever else it holds."""
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    obs = MarketObservation(
        price_ris=2.0, price_spectrum=3.0, avail_ris=avail_ris, avail_spectrum=avail_spectrum, arrival=1
    )
    state, record = step(QueueState(4.0, 2.0), obs, GREEDY, params, t=3)
    assert (record.avail_ris, record.avail_spectrum) == (avail_ris, avail_spectrum)
    assert (record.x_desired, record.y_desired) == (1, 1)
    assert (record.x_effective, record.y_effective, record.r) == (0, 0, 0)
    assert record.cost == 0.0
    assert (record.q_before, record.q_after) == (5.0, 5.0)
    assert (record.z_before, record.z_after) == (2.0, 3.0)
    assert state == QueueState(5.0, 3.0)


def test_run_treats_only_flag_one_as_available():
    """A market with flags other than 0 and 1 runs as a step chain does,
    from any starting state and slot."""
    avail_ris = [2, 1, 0, 1, 2, 1]
    avail_spectrum = [1, 2, 1, 1, 2, 1]
    realization = Realization(
        arrival=np.array([1, 0, 1, 0, 0, 1]),
        price_ris=np.array([2.0, 3.0, 1.5, 4.0, 2.5, 1.0]),
        price_spectrum=np.array([1.0, 2.0, 2.5, 0.5, 3.5, 2.0]),
        avail_ris=np.array(avail_ris),
        avail_spectrum=np.array(avail_spectrum),
    )
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    columns = _run_loop(realization, 4.0, 1.5, 3, False, GREEDY, params, backend="python")
    assert columns["r"].tolist() == [0, 0, 0, 1, 0, 1]
    state = QueueState(4.0, 1.5)
    for i in range(len(realization)):
        state, record = step(state, realization.observation(i), GREEDY, params, t=i + 3)
        assert record == Trace(columns).record(i), i


def test_step_lease_serves_one_packet():
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    state, record = step(QueueState(20.0, 5.0), flat_market(arrival=0), DSF, params)
    assert record.r == 1
    assert record.cost == 11.0
    assert state.q == 19.0


def test_step_rejects_bad_slot_index():
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError):
        step(QueueState(0.0, 0.0), flat_market(), DSF, params, t=0)


ALL_POLICIES = ["dsf", "dsf_exact_argmin", "periodic:3", "greedy", "price_only:8", "queue_threshold:5", "myopic"]


@pytest.mark.parametrize(
    "label,freeze",
    [pytest.param(label, False, id=label) for label in ALL_POLICIES]
    + [pytest.param(label, True, id=f"{label}-freeze_z") for label in ALL_POLICIES],
)
def test_step_chain_reproduces_run(label, freeze):
    scenario = ScenarioConfig(
        horizon_slots=200, initial_backlog=3, seed=17, freeze_z_when_empty=freeze
    )
    spec = parse_policy(label)
    params = default_params(scenario, v=10.0, eps_d=0.5)
    trace = run(scenario, spec, params, backend="python")
    realization = draw_realization(scenario)

    state = QueueState(float(scenario.initial_backlog), 0.0)
    for i in range(len(realization)):
        state, record = step(
            state, realization.observation(i), spec, params, t=i + 1, freeze_z_when_empty=freeze
        )
        want = trace.record(i)
        assert record == want, i
        assert list(map(type, vars(record).values())) == list(map(type, vars(want).values())), i


def assert_same_as_init(built, cls):
    """`built` is what cls(*values) would be: same ==, hash, vars() order
    and value types (each field's annotated type), and still frozen."""
    reference = cls(*vars(built).values())
    assert type(built) is cls
    assert built == reference and hash(built) == hash(reference)
    assert list(vars(built)) == list(vars(reference)) == [f.name for f in fields(cls)]
    assert [type(value).__name__ for value in vars(built).values()] == [f.type for f in fields(cls)]
    with pytest.raises(FrozenInstanceError):
        setattr(built, fields(cls)[0].name, 0)


@pytest.mark.parametrize("label", ALL_POLICIES)
def test_records_equal_generated_init(label):
    scenario = ScenarioConfig(horizon_slots=40, initial_backlog=2, seed=8)
    spec = parse_policy(label)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    trace = run(scenario, spec, params, backend="python")
    realization = draw_realization(scenario)
    state = QueueState(2.0, 0.0)
    for i in range(len(realization)):
        observation = realization.observation(i)
        assert_same_as_init(observation, MarketObservation)
        state, record = step(state, observation, spec, params, t=i + 1)
        assert_same_as_init(state, QueueState)
        assert_same_as_init(record, SlotRecord)
        assert_same_as_init(trace.record(i), SlotRecord)


def test_trace_schema_is_slot_record():
    assert TRACE_COLUMNS == tuple(vars(SlotRecord(*range(16))))
    assert INT_TRACE_COLUMNS == {
        "t", "arrival", "avail_ris", "avail_spectrum",
        "x_desired", "y_desired", "x_effective", "y_effective", "r",
    }


def test_conservation_of_packets():
    scenario = ScenarioConfig(horizon_slots=2000, initial_backlog=5, seed=7)
    trace = run(scenario, DSF, default_params(scenario, v=10.0, eps_d=1.0))
    served = trace.column("q_before") - trace.column("q_after")
    total_in = scenario.initial_backlog + trace.column("arrival").sum()
    assert total_in == served.sum() + trace.column("q_after")[-1]


def test_cost_accounting_elementwise():
    scenario = ScenarioConfig(horizon_slots=1000, seed=5)
    trace = run(scenario, parse_policy("myopic"), default_params(scenario, v=10.0, eps_d=1.0))
    want = (
        trace.column("x_effective") * trace.column("price_ris")
        + trace.column("y_effective") * trace.column("price_spectrum")
    )
    assert np.array_equal(trace.column("cost"), want)


def test_masking_soundness():
    with pytest.warns(UserWarning, match="stability headroom"):
        scenario = ScenarioConfig(horizon_slots=3000, avail_prob_ris=0.5, avail_prob_spectrum=0.5, seed=2)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    xe = trace.column("x_effective")
    ye = trace.column("y_effective")
    both = (trace.column("avail_ris") == 1) & (trace.column("avail_spectrum") == 1)
    assert np.array_equal(xe, ye)  # leases are all-or-nothing
    assert not np.any(xe[~both])  # never act through an outage
    assert np.array_equal(trace.column("r"), xe * ye)


def test_run_is_deterministic():
    scenario = ScenarioConfig(horizon_slots=500, seed=99)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    a = run(scenario, DSF, params)
    b = run(scenario, DSF, params)
    for name in TRACE_COLUMNS:
        assert a.column(name).tobytes() == b.column(name).tobytes()


def test_recorded_transitions_match_queue_laws():
    scenario = ScenarioConfig(horizon_slots=600, initial_backlog=2, seed=13)
    trace = run(scenario, DSF, default_params(scenario, v=5.0, eps_d=1.0))
    qb = trace.column("q_before")
    qa = trace.column("q_after")
    zb = trace.column("z_before")
    za = trace.column("z_after")
    r = trace.column("r")
    arrival = trace.column("arrival")
    for i in range(len(trace) - 1):
        assert qb[i + 1] == advance_data_queue(qb[i], int(r[i]), int(arrival[i + 1]))
        assert za[i] == advance_virtual_queue(zb[i], int(r[i]), 1.0)
        assert zb[i + 1] == za[i]
        assert qa[i] == max(qb[i] - r[i], 0.0)


def test_freeze_flag_stops_urgency_when_idle():
    frozen = ScenarioConfig(horizon_slots=30, arrival_prob=0.0, freeze_z_when_empty=True)
    ticking = ScenarioConfig(horizon_slots=30, arrival_prob=0.0)
    params = default_params(frozen, v=1000.0, eps_d=1.0)
    assert run(frozen, DSF, params).column("z_after")[-1] == 0.0
    assert run(ticking, DSF, params).column("z_after")[-1] == 30.0


def test_trace_validation():
    scenario = ScenarioConfig(horizon_slots=10)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    columns = {name: trace.column(name) for name in TRACE_COLUMNS}

    broken = dict(columns)
    del broken["cost"]
    with pytest.raises(ConfigError, match="missing"):
        Trace(broken)

    ragged = dict(columns)
    ragged["cost"] = columns["cost"][:-1]
    with pytest.raises(ConfigError, match="unequal"):
        Trace(ragged)

    with pytest.raises(KeyError):
        trace.column("nonsense")


def test_trace_records_round_trip():
    scenario = ScenarioConfig(horizon_slots=25, seed=4)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    rows = trace.records
    assert len(rows) == 25
    assert rows[3] == trace.record(3)
    assert isinstance(rows[0].t, int) and isinstance(rows[0].cost, float)
