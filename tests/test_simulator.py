"""Slot engine tests: full runs, single steps, and trace bookkeeping."""
import dataclasses
import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from leasesim import _kernels, core, reporting, simulator
from leasesim.core import (
    ConfigError,
    ControlParams,
    QueueState,
    advance_data_queue,
    advance_virtual_queue,
    builder,
)
from leasesim.environment import (
    COLUMN_RULES,
    MARKET_FIELDS,
    MarketObservation,
    Realization,
    ScenarioConfig,
    check_market_slot,
    check_value,
    draw_realization,
    with_seed,
)
from leasesim.policies import POLICY_KINDS, PolicySpec, parse_policy
from leasesim.reporting import read_trace_csv, write_trace_csv
from leasesim.simulator import (
    TRACE_COLUMNS,
    TRACE_DTYPES,
    SlotRecord,
    Trace,
    _cell_columns,
    audit,
    cell_columns,
    default_params,
    offline_min_cost,
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
def test_step_rejects_a_flag_other_than_zero_or_one(avail_ris, avail_spectrum):
    """A flag is 0 or 1, as in COLUMN_RULES; step names the first bad one,
    in MARKET_FIELDS order, with the oracle's words."""
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    obs = MarketObservation(
        price_ris=2.0, price_spectrum=3.0, avail_ris=avail_ris, avail_spectrum=avail_spectrum, arrival=1
    )
    field = "avail_ris" if avail_ris == 2 else "avail_spectrum"
    with pytest.raises(ConfigError, match=f"^observation: {field} must be <= 1, got 2$"):
        step(QueueState(4.0, 2.0), obs, GREEDY, params, t=3)


def test_run_treats_only_flag_one_as_available():
    """_cell_columns, which takes its market as drawn, leases only where both
    flags equal 1, from any starting state and slot."""
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
    [columns] = _cell_columns(realization, 4.0, 1.5, 3, False, [(GREEDY, params)])
    assert columns["x_desired"].tolist() == [1] * 6
    assert columns["r"].tolist() == [0, 0, 0, 1, 0, 1]
    assert columns["cost"].tolist() == [0.0, 0.0, 0.0, 4.5, 0.0, 3.0]


@pytest.mark.parametrize(
    "arrival, message",
    [
        (-1, ">= 0, got -1"),
        (-3, ">= 0, got -3"),
        (np.int64(-2), ">= 0, got -2"),
        (1.7, "an integer, got 1.7"),
        (-0.5, "an integer, got -0.5"),
        (True, "an integer, got True"),
        (math.nan, "an integer, got nan"),
    ],
    ids=["-1", "-3", "arrival2", "1.7", "-0.5", "True", "nan"],
)
def test_step_rejects_a_negative_arrival(arrival, message):
    """A negative arrival would drive the queue below zero, and one that is
    not an integer would run as another number; step names the field."""
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError, match=f"^observation: arrival must be {re.escape(message)}$"):
        step(QueueState(1.0, 0.0), flat_market(arrival=arrival), GREEDY, params)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True], ids=["nan", "inf", "-1.0", "True"])
@pytest.mark.parametrize("field", ["price_ris", "price_spectrum"])
def test_step_rejects_a_bad_price(field, value):
    """A NaN price would give a NaN cost, a negative one a negative cost;
    step names the field."""
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    observation = dataclasses.replace(flat_market(), **{field: value})
    message = f"observation: {field} must be a finite number >= 0, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        step(QueueState(1.0, 0.0), observation, GREEDY, params)


def test_step_accepts_int_and_numpy_prices():
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    want = step(QueueState(2.0, 0.0), flat_market(price=5.0), GREEDY, params)
    for price in (5, np.float64(5.0)):
        got = step(QueueState(2.0, 0.0), flat_market(price=price), GREEDY, params)
        assert got == want
        assert type(got[1].price_ris) is float and type(got[1].price_spectrum) is float


@pytest.mark.parametrize(
    "value, message",
    [
        (1.7, "an integer, got 1.7"),
        (1.0, "an integer, got 1.0"),
        (True, "an integer, got True"),
        (math.nan, "an integer, got nan"),
        (-1, ">= 0, got -1"),
        (np.int64(-1), ">= 0, got -1"),
    ],
    ids=["1.7", "1.0", "True", "nan", "-1", "int64(-1)"],
)
@pytest.mark.parametrize("field", ["avail_ris", "avail_spectrum"])
def test_step_rejects_a_bad_avail_flag(field, value, message):
    """A flag of 1.7 would run as 1 and lease; step names the field."""
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    observation = dataclasses.replace(flat_market(), **{field: value})
    with pytest.raises(ConfigError, match=f"^observation: {field} must be {re.escape(message)}$"):
        step(QueueState(1.0, 0.0), observation, GREEDY, params)


def _fields_checked_by_step():
    integers = st.integers(-1, 3) | st.sampled_from([2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1])
    floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])  # negatives included
    numbers = st.one_of(
        integers, integers.filter(lambda i: i < 2**63).map(np.int64), floats, floats.map(np.float64),
        st.booleans(),
    )
    return {name: numbers for name in MARKET_FIELDS}


def _first_bad_field(values):
    """The first field in MARKET_FIELDS order whose value COLUMN_RULES rejects."""
    for name in MARKET_FIELDS:
        try:
            check_value("observation", name, values[name])
        except ConfigError:
            return name


@settings(max_examples=400, deadline=None)
@given(label=st.sampled_from(["dsf", "greedy", "myopic", "price_only:8"]), **_fields_checked_by_step())
@example(label="greedy", price_ris=2.0, price_spectrum=3.0, avail_ris=1.7, avail_spectrum=1, arrival=0)
@example(label="greedy", price_ris=2.0, price_spectrum=3.0, avail_ris=True, avail_spectrum=1, arrival=0)
@example(label="greedy", price_ris=2.0, price_spectrum=3.0, avail_ris=math.nan, avail_spectrum=1, arrival=0)
@example(label="greedy", price_ris=2.0, price_spectrum=3.0, avail_ris=1, avail_spectrum=-1, arrival=0)
@example(label="greedy", price_ris=2.0, price_spectrum=3.0, avail_ris=2, avail_spectrum=1, arrival=1)
@example(label="greedy", price_ris=2.0, price_spectrum=3.0, avail_ris=1, avail_spectrum=1, arrival=2**63)
@example(label="greedy", price_ris=-1.0, price_spectrum=3.0, avail_ris=2, avail_spectrum=1, arrival=2**63)
@example(label="greedy", price_ris=2, price_spectrum=np.float64(-0.0), avail_ris=np.int64(1), avail_spectrum=1,
         arrival=2**63 - 1)
def test_step_checks_each_observation_field(label, **values):
    """step accepts exactly the observations check_market_slot accepts. On
    a bad one it raises check_market_slot's text, which names the first bad
    field in MARKET_FIELDS order; on a good one it gives the record that a
    one-slot run gives on the market converted to ints and floats."""
    spec = parse_policy(label)
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    observation = MarketObservation(**values)
    state = QueueState(3.0, 2.0)
    try:
        check_market_slot("observation", *(values[name] for name in MARKET_FIELDS))
    except ConfigError as want:
        assert str(want).startswith(f"observation: {_first_bad_field(values)} must be ")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(want))}$"):
            step(state, observation, spec, params, t=4)
        return
    realization = Realization(**{
        name: np.array([float(value) if name.startswith("price") else int(value)]) for name, value in values.items()
    })
    with np.errstate(over="ignore"):  # two huge prices sum to inf, as in step
        [columns] = _cell_columns(realization, 3.0, 2.0, 4, False, [(spec, params)])
    want = Trace(columns).record(0)
    got_state, got = step(state, observation, spec, params, t=4)
    assert got == want
    assert list(map(type, vars(got).values())) == list(map(type, vars(want).values()))
    assert got_state == QueueState(want.q_after, want.z_after)


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


@pytest.mark.parametrize(
    "bad, message",
    [
        (0, ">= 1, got 0"), (1.5, "an integer, got 1.5"), (True, "an integer, got True"), ("2", "an integer, got '2'"),
        (2**63, f"<= {2**63 - 1}, got {2**63}"),
    ],
)
def test_step_checks_the_slot_index_as_an_integer(bad, message):
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    with pytest.raises(ConfigError, match=f"^slot index must be {re.escape(message)}$"):
        step(QueueState(3.0, 0.0), flat_market(), DSF, params, t=bad)


def test_step_accepts_a_numpy_slot_index():
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    want = step(QueueState(3.0, 0.0), flat_market(), GREEDY, params, t=3)
    got = step(QueueState(3.0, 0.0), flat_market(), GREEDY, params, t=np.int64(3))
    assert got == want
    assert type(got[1].t) is int


# per column rule, odd values: Python, numpy and Fraction numbers, bools,
# edge floats and a str, some allowed and most not
_ODD_FLOATS = [
    -1.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 2, True, np.float64(-0.0), np.float64(math.nan),
    np.float32(0.5), np.float32(-2.0), np.bool_(False), Fraction(1, 3), "1",
]
_ODD_INTS = [
    -1, 0, 2, 2**63 - 1, 2**63, True, 1.0, -0.0, math.nan, np.int64(-1), np.int64(2**63 - 1),
    np.float32(1.0), np.bool_(True), Fraction(2), "1",
]


def _odd_values(name):
    return st.sampled_from(_ODD_FLOATS if COLUMN_RULES[name] is None else _ODD_INTS)


def _allowed_values(name, numpy=True):
    """A value the column `name` allows, as a Python number or, with
    `numpy`, as either a Python or a numpy number."""
    if COLUMN_RULES[name] is None:
        plain, cast = st.floats(0.0, 20.0), np.float64
    else:
        low = COLUMN_RULES[name][0]
        plain, cast = st.integers(low, low + 1), np.int64
    return plain | plain.map(cast) if numpy else plain


@st.composite
def _slot_and_index(draw):
    """A slot index, odd one time in four, and two market slots of allowed
    values, each with at most one field made odd. Half the draws hold only
    Python numbers besides the odd ones, so that the fast accept, not only
    the checks behind it, judges them."""
    numpy = draw(st.booleans())
    t = draw(_odd_values("t") if draw(st.integers(0, 3)) == 0 else _allowed_values("t", numpy))
    slots = [{name: draw(_allowed_values(name, numpy)) for name in MARKET_FIELDS} for _ in range(2)]
    for slot in slots:
        odd = draw(st.sampled_from([None, *MARKET_FIELDS]))
        if odd is not None:
            slot[odd] = draw(_odd_values(odd))
    return t, slots


def _plain(name, value):
    """`value` as the Python int or float of column `name`, as step converts it."""
    return float(value) if COLUMN_RULES[name] is None else int(value)


def _first_bad_slot(slots):
    """check_value's message for the first bad column in MARKET_FIELDS
    order and that column's first bad slot, or None."""
    for name in MARKET_FIELDS:
        for row, slot in enumerate(slots, start=1):
            try:
                check_value(f"slot {row}", name, slot[name])
            except ConfigError as exc:
                return str(exc)
    return None


def _oracle(market):
    try:
        return offline_min_cost(market, 1, 2)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(["dsf", "periodic:3", "greedy", "price_only:8", "myopic"]),
    freeze=st.booleans(),
    q=st.sampled_from([3.0, 3, np.float64(3.0), Fraction(7, 2)]),
    inputs=_slot_and_index(),
)
# a bool flag, -0.0 prices and a numpy-scalar arrival, each after good slots
@example(label="greedy", freeze=False, q=3.0, inputs=(2, [
    dict(arrival=1, price_ris=2.0, price_spectrum=3.0, avail_ris=1, avail_spectrum=1),
    dict(arrival=0, price_ris=2.0, price_spectrum=3.0, avail_ris=True, avail_spectrum=1),
]))
@example(label="myopic", freeze=True, q=3.0, inputs=(1, [
    dict(arrival=0, price_ris=-0.0, price_spectrum=-0.0, avail_ris=1, avail_spectrum=1),
    dict(arrival=1, price_ris=2.0, price_spectrum=-0.0, avail_ris=1, avail_spectrum=1),
]))
@example(label="dsf", freeze=False, q=3.0, inputs=(np.int64(5), [
    dict(arrival=np.int64(2), price_ris=2.0, price_spectrum=3.0, avail_ris=1, avail_spectrum=1),
    dict(arrival=np.int64(0), price_ris=2.0, price_spectrum=3.0, avail_ris=1, avail_spectrum=1),
]))
def test_the_generated_accept_agrees_with_the_checks(label, freeze, q, inputs):
    """step raises exactly the ConfigError of check_int (slot index) and
    check_market_slot, in that order, or gives what it gives for the values
    converted to Python ints and floats; the oracle, given the slots as
    observations or as a Realization of object columns, names the first bad
    column's first bad slot, or gives what it gives for the converted slots."""
    t, slots = inputs
    spec = parse_policy(label)
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    state, slot = QueueState(q, 2.0), slots[0]
    try:
        core.check_int("slot index", t, *COLUMN_RULES["t"])
        check_market_slot("observation", *(slot[name] for name in MARKET_FIELDS))
    except ConfigError as want:
        event("step rejects")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(want))}$"):
            step(state, MarketObservation(**slot), spec, params, t=t, freeze_z_when_empty=freeze)
    else:
        event("step accepts")
        plain = MarketObservation(**{name: _plain(name, value) for name, value in slot.items()})
        got = step(state, MarketObservation(**slot), spec, params, t=t, freeze_z_when_empty=freeze)
        want = step(QueueState(float(q), 2.0), plain, spec, params, t=int(t), freeze_z_when_empty=freeze)
        assert got == want
        assert [repr(value) for value in (*vars(got[0]).values(), *vars(got[1]).values())] == [
            repr(value) for value in (*vars(want[0]).values(), *vars(want[1]).values())
        ]

    observations = [MarketObservation(**slot) for slot in slots]
    realization = Realization(**{
        name: np.fromiter((slot[name] for slot in slots), dtype=object, count=len(slots)) for name in MARKET_FIELDS
    })
    result = _oracle(observations)
    assert _oracle(realization) == result
    message = _first_bad_slot(slots)
    if message is not None:
        event("oracle rejects")
        assert result == message
    else:
        event("oracle accepts")
        plain = [MarketObservation(**{name: _plain(name, value) for name, value in s.items()}) for s in slots]
        assert result == _oracle(plain)
        assert repr(result[0]) == repr(_oracle(plain)[0])


@pytest.mark.parametrize("flag", ["no", 1, None, np.bool_(True)], ids=["str", "int", "none", "numpy_bool"])
def test_step_rejects_a_non_bool_freeze_flag(flag):
    """step judges freeze_z_when_empty by ScenarioConfig's rule: only True
    or False. A truthy "no" used to freeze z."""
    params = ControlParams(v=1000.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    message = f"^freeze_z_when_empty must be true or false, got {re.escape(repr(flag))}$"
    with pytest.raises(ConfigError, match=message):
        step(QueueState(0.0, 2.0), flat_market(arrival=0, avail=0), DSF, params, freeze_z_when_empty=flag)
    state, _ = step(QueueState(0.0, 2.0), flat_market(arrival=0, avail=0), DSF, params, freeze_z_when_empty=True)
    assert state.z == 2.0


ALL_POLICIES =["dsf", "dsf_exact_argmin", "periodic:3", "greedy", "price_only:8", "queue_threshold:5", "myopic"]


@pytest.mark.parametrize(
    "label,freeze,start",
    [pytest.param(label, False, float, id=label) for label in ALL_POLICIES]
    + [pytest.param(label, True, float, id=f"{label}-freeze_z") for label in ALL_POLICIES]
    # a first state of ints or numpy scalars gives the records' Python floats too
    + [pytest.param(label, False, start, id=f"{label}-{start.__name__}_queues")
       for label in ("dsf", "greedy") for start in (int, np.int64, np.float64)],
)
def test_step_chain_reproduces_run(label, freeze, start):
    scenario = ScenarioConfig(
        horizon_slots=200, initial_backlog=3, seed=17, freeze_z_when_empty=freeze
    )
    spec = parse_policy(label)
    params = default_params(scenario, v=10.0, eps_d=0.5)
    trace = run(scenario, spec, params)
    realization = draw_realization(scenario)

    state = QueueState(start(scenario.initial_backlog), start(0))
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
    trace = run(scenario, spec, params)
    realization = draw_realization(scenario)
    state = QueueState(2.0, 0.0)
    for i in range(len(realization)):
        observation = realization.observation(i)
        assert_same_as_init(observation, MarketObservation)
        state, record = step(state, observation, spec, params, t=i + 1)
        assert_same_as_init(state, QueueState)
        assert_same_as_init(record, SlotRecord)
        assert_same_as_init(trace.record(i), SlotRecord)
        # the loop stores its wish as a bool; records hold ints, so JSON writes 1, not true
        for built in (record, trace.record(i)):
            assert type(built.x_desired) is int and type(built.r) is int


def test_with_seed_builds_as_init_does():
    config = with_seed(ScenarioConfig(horizon_slots=40, initial_backlog=2, price_high=7.5), 9)
    assert_same_as_init(config, ScenarioConfig)
    assert config == ScenarioConfig(horizon_slots=40, initial_backlog=2, price_high=7.5, seed=9)


@pytest.mark.parametrize(
    "cls, values",
    [
        (SlotRecord, (3, 4.0, 2.0, 1, 1, 1, 2.5, 3.5, 1, 1, 1, 1, 1, 6.0, 3.0, 1.0)),
        (QueueState, (1.0, 2.0)),
        (MarketObservation, (2.0, 3.0, 1, 1, 0)),
    ],
    ids=["SlotRecord", "QueueState", "MarketObservation"],
)
def test_frozen_rejects_values_of_the_wrong_length(cls, values):
    """A short tuple would leave an instance with fields missing, a long
    one would drop values."""
    assert_same_as_init(builder(cls)(values), cls)
    with pytest.raises(ValueError, match="not enough values to unpack"):
        builder(cls)(values[:-1])
    with pytest.raises(ValueError, match="too many values to unpack"):
        builder(cls)((*values, 0))


def test_frozen_generates_one_builder_per_class(monkeypatch):
    monkeypatch.setattr(core, "_BUILDERS", {})
    build_state = builder(QueueState)
    states = [build_state((1.0, 2.0)), builder(QueueState)((3.0, 4.0))]
    observation = builder(MarketObservation)((2.0, 3.0, 1, 1, 0))
    assert list(core._BUILDERS) == [QueueState, MarketObservation]
    assert core._BUILDERS[QueueState] is build_state
    assert core._BUILDERS[QueueState] is not core._BUILDERS[MarketObservation]
    assert states == [QueueState(1.0, 2.0), QueueState(3.0, 4.0)]
    assert observation == MarketObservation(2.0, 3.0, 1, 1, 0)


def test_trace_schema_is_slot_record():
    assert TRACE_COLUMNS == tuple(vars(SlotRecord(*range(16)))) == tuple(TRACE_DTYPES)
    assert {name for name, dtype in TRACE_DTYPES.items() if dtype == np.int64} == {
        "t", "arrival", "avail_ris", "avail_spectrum",
        "x_desired", "y_desired", "x_effective", "y_effective", "r",
    }
    assert set(TRACE_DTYPES.values()) == {np.dtype(np.int64), np.dtype(np.float64)}
    assert [field.type for field in fields(SlotRecord)] == [
        "int" if dtype == np.int64 else "float" for dtype in TRACE_DTYPES.values()
    ]


def test_slot_record_keeps_its_class_contract():
    """SlotRecord is made from COLUMN_RULES, not by a class statement, yet
    it names its module and itself, is documented, pickles by reference and
    stays frozen."""
    assert (SlotRecord.__module__, SlotRecord.__qualname__) == ("leasesim.simulator", "SlotRecord")
    assert SlotRecord.__doc__.strip()
    scenario = ScenarioConfig(horizon_slots=30, initial_backlog=2, seed=4)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    from_run = run(scenario, DSF, params).record(5)
    _, from_step = step(QueueState(2.0, 1.0), flat_market(), DSF, params, t=3)
    for record in (from_run, from_step):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is SlotRecord
        assert copy == record and hash(copy) == hash(record)
        assert list(vars(copy).items()) == list(vars(record).items())
        with pytest.raises(FrozenInstanceError):
            record.q_after = 0.0


def test_conservation_of_packets():
    scenario = ScenarioConfig(horizon_slots=2000, initial_backlog=5, seed=7)
    trace = run(scenario, DSF, default_params(scenario, v=10.0, eps_d=1.0))
    served = trace.column("q_before") - trace.column("q_after")
    total_in = scenario.initial_backlog + trace.column("arrival").sum()
    assert total_in == served.sum() + trace.column("q_after")[-1]


def test_largest_initial_backlog_conserves_packets():
    """At the cap, 2**53 - horizon_slots, the float queue stays exact: every
    lease serves one packet, and the backlog plus the arrivals equals the
    packets served plus those left."""
    horizon = 200
    scenario = ScenarioConfig(horizon_slots=horizon, seed=1, initial_backlog=2**53 - horizon)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    served = int(trace.column("r").sum())
    assert served > 0
    packets_in = scenario.initial_backlog + int(trace.column("arrival").sum())
    assert packets_in == served + int(trace.column("q_after")[-1])


@st.composite
def conserving_runs(draw):
    """A random scenario, either freeze flag, with an initial backlog up to
    its cap 2**53 - horizon_slots, and one cell of each of the 7 kinds."""
    horizon = draw(st.integers(1, 300))
    price_low = draw(st.floats(0.5, 20.0))
    scenario = ScenarioConfig(
        horizon_slots=horizon,
        arrival_prob=draw(st.floats(0.0, 1.0)),
        price_low=price_low,
        price_high=draw(st.floats(price_low, 40.0)),
        avail_prob_ris=draw(st.floats(0.0, 1.0)),
        avail_prob_spectrum=draw(st.floats(0.0, 1.0)),
        initial_backlog=draw(st.integers(0, 20) | st.integers(0, 2**53 - horizon) | st.just(2**53 - horizon)),
        seed=draw(st.integers(0, 2**64 - 1)),
        freeze_z_when_empty=draw(st.booleans()),
    )
    params = default_params(scenario, v=draw(st.floats(0.1, 50.0)), eps_d=draw(st.floats(0.1, 5.0)))
    param_of = {
        "period_k": st.integers(1, 10),
        "price_cutoff": st.floats(0.5, 80.0),
        "queue_cutoff": st.floats(0.5, 2.0**54),
    }
    specs = [PolicySpec(kind, None if name is None else draw(param_of[name])) for kind, (name, _) in POLICY_KINDS.items()]
    return scenario, [(spec, params) for spec in specs]


@pytest.mark.filterwarnings("ignore:arrival_prob=.* stability headroom:UserWarning")
@settings(max_examples=60, deadline=None)
@given(drawn=conserving_runs())
def test_every_kind_conserves_packets_and_prices_its_leases(drawn):
    """For every cell's columns: initial backlog + the arrivals == the
    packets served (q_before - q_after) + the last q_after, as integers; and
    each row's cost is r * price_ris + r * price_spectrum."""
    scenario, cells = drawn
    kinds = []
    for (policy, _), columns in zip(cells, cell_columns(scenario, cells), strict=True):
        kinds.append(policy.kind)
        q_before, q_after = columns["q_before"].tolist(), columns["q_after"].tolist()
        assert all(q.is_integer() for q in q_before + q_after)
        served = sum(int(before) - int(after) for before, after in zip(q_before, q_after))
        packets_in = scenario.initial_backlog + sum(columns["arrival"].tolist())
        assert packets_in == served + int(q_after[-1])
        r = columns["r"]
        assert np.array_equal(columns["cost"], r * columns["price_ris"] + r * columns["price_spectrum"])
    assert kinds == list(POLICY_KINDS)


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

    # an integer column of another dtype is judged before the cast, which
    # would store 1.5 as 1 and NaN as -2**63, and no numpy warning escapes
    for arrival, message in [
        ([1.5, np.nan], "trace row 1: arrival must be an integer, got 1.5"),
        ([1.0, np.nan], "trace row 2: arrival must be an integer, got nan"),
        ([0.0, np.inf], "trace row 2: arrival must be an integer, got inf"),
        ([0.0, 1e19], "trace row 2: arrival must be <= 9223372036854775807, got 10000000000000000000"),
        ([-1.0, 0.0], "trace row 1: arrival must be >= 0, got -1"),
        (np.array([0, 2**64 - 1], dtype=np.uint64), "trace row 2: arrival must be <= 9223372036854775807, got"),
    ]:
        short = {name: column[:2] for name, column in columns.items()}
        with pytest.raises(ConfigError, match=re.escape(message)):
            Trace({**short, "arrival": np.asarray(arrival)})
    with pytest.raises(ConfigError, match=re.escape("trace row 3: r must be <= 1, got 2")):
        Trace({**columns, "r": np.array([0, 1, 2] + [0] * 7, dtype=np.int32)})
    # so is a float column, which astype would meet with a bare ValueError
    with pytest.raises(ConfigError, match=re.escape("trace row 1: cost must be a finite number >= 0, got 'a'")):
        Trace({**columns, "cost": np.array(["a"] * 10)})
    integral = Trace({**columns, "arrival": columns["arrival"].astype(np.float64)})
    assert integral.column("arrival").dtype == np.int64
    assert np.array_equal(integral.column("arrival"), columns["arrival"])


def test_trace_records_round_trip():
    scenario = ScenarioConfig(horizon_slots=25, seed=4)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    rows = list(trace)
    assert len(rows) == 25
    assert rows[3] == trace.record(3)
    assert isinstance(rows[0].t, int) and isinstance(rows[0].cost, float)


def test_a_trace_stores_each_column_as_its_schema_dtype(tmp_path):
    """Columns given as bool, uint8, int32 or float32 are stored as their
    TRACE_DTYPES dtype, so records hold ints and floats and the CSV bytes
    are those of the same trace built from int64 and float64 columns."""
    n = 6
    narrow = {}
    for name, dtype in TRACE_DTYPES.items():
        if name == "t":
            narrow[name] = np.arange(1, n + 1, dtype=np.int32)
        elif name == "arrival":
            narrow[name] = np.arange(n, dtype=np.uint8)
        elif dtype == np.int64:
            narrow[name] = np.arange(n) % 2 == 1
        else:
            narrow[name] = np.linspace(0.1, 2.6, n, dtype=np.float32)
    trace = Trace(narrow)
    assert [trace.column(name).dtype for name in TRACE_COLUMNS] == list(TRACE_DTYPES.values())
    wide = Trace({name: column.astype(TRACE_DTYPES[name]) for name, column in narrow.items()})
    python_types = [int if dtype == np.int64 else float for dtype in TRACE_DTYPES.values()]
    for i in range(n):
        record = trace.record(i)
        assert [type(value) for value in vars(record).values()] == python_types
        assert record == wide.record(i)
    write_trace_csv(trace, tmp_path / "narrow.csv")
    write_trace_csv(wide, tmp_path / "wide.csv")
    assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()


@pytest.mark.parametrize("freeze", [False, True], ids=["ticking", "frozen"])
@pytest.mark.parametrize("label", ALL_POLICIES)
def test_iterating_a_trace_gives_its_records(label, freeze):
    scenario = ScenarioConfig(horizon_slots=60, initial_backlog=3, seed=9, freeze_z_when_empty=freeze)
    trace = run(scenario, parse_policy(label), default_params(scenario, v=2.0, eps_d=0.5))
    assert list(trace) == [trace.record(i) for i in range(len(trace))]


@pytest.mark.parametrize("freeze", [False, True])
def test_runs_on_one_market_equal_standalone_runs(freeze):
    """Each cell's columns that cell_columns yields on one market are the
    columns of the trace run() gives for its cell: same dtypes and bytes."""
    scenario = ScenarioConfig(horizon_slots=500, initial_backlog=3, seed=17, freeze_z_when_empty=freeze)
    cells = [
        (parse_policy(label), default_params(scenario, v=v, eps_d=eps_d))
        for label in ALL_POLICIES
        for v, eps_d in ((2.0, 0.5), (20.0, 2.0))
    ]
    for (policy, params), got in zip(cells, cell_columns(scenario, cells), strict=True):
        want = run(scenario, policy, params)
        assert list(got) == list(TRACE_COLUMNS)
        for name in TRACE_COLUMNS:
            assert got[name].dtype == want.column(name).dtype, name
            assert got[name].tobytes() == want.column(name).tobytes(), name


def assert_owns_its_columns(trace, inputs):
    """No two of the trace's columns share memory, and none shares memory
    with an array of `inputs`; every column is writable; and zeroing r
    leaves both effective columns as they were."""
    columns = [trace.column(name) for name in TRACE_COLUMNS]
    for i, column in enumerate(columns):
        assert column.flags.writeable, TRACE_COLUMNS[i]
        for other in columns[i + 1:] + list(inputs):
            assert not np.shares_memory(column, other), TRACE_COLUMNS[i]
    effective = [trace.column(name).copy() for name in ("x_effective", "y_effective")]
    trace.column("r")[:] = 0
    assert np.array_equal(trace.column("x_effective"), effective[0])
    assert np.array_equal(trace.column("y_effective"), effective[1])


def test_a_trace_owns_every_column(monkeypatch, tmp_path):
    """A trace copies every column it is given: a run() trace of each kind,
    a trace read back from CSV and a trace built from a dict that passes
    one array as two columns each own every column they hold."""
    markets, dicts = [], []

    def recording_draw(scenario):
        markets.append(draw_realization(scenario))
        return markets[-1]

    def recording_cell_columns(scenario, cells):
        for columns in cell_columns(scenario, cells):
            dicts.append(columns)
            yield columns

    monkeypatch.setattr(simulator, "draw_realization", recording_draw)
    monkeypatch.setattr(simulator, "cell_columns", recording_cell_columns)
    scenario = ScenarioConfig(horizon_slots=80, initial_backlog=3, seed=12)
    params = default_params(scenario, v=2.0, eps_d=1.0)
    for label in ALL_POLICIES:
        trace = run(scenario, parse_policy(label), params)
        assert trace.column("r").any(), label  # so zeroing r shows an alias
        market = [getattr(markets[-1], name) for name in MARKET_FIELDS]
        assert_owns_its_columns(trace, market + list(dicts[-1].values()))
    assert len(markets) == len(dicts) == len(ALL_POLICIES)

    greedy = run(scenario, GREEDY, params)
    write_trace_csv(greedy, tmp_path / "trace.csv")
    read = []
    read_columns = reporting._read_csv_columns

    def recording_read(*args):
        read.append(read_columns(*args))
        return read[-1]

    monkeypatch.setattr(reporting, "_read_csv_columns", recording_read)
    trace = read_trace_csv(tmp_path / "trace.csv")
    assert trace.column("r").any()
    assert_owns_its_columns(trace, read[0].values())

    given = {name: greedy.column(name) for name in TRACE_COLUMNS}
    given["y_desired"] = given["x_desired"]
    given["x_effective"] = given["y_effective"] = given["r"]
    assert given["x_desired"].dtype == np.int64 and given["r"].any()
    assert_owns_its_columns(Trace(given), given.values())


def test_default_params_rejects_a_v_whose_threshold_overflows():
    scenario = ScenarioConfig(horizon_slots=10)
    with pytest.raises(ConfigError, match=r"^v=1e\+308 is too large: the lease threshold"):
        default_params(scenario, v=1e308, eps_d=1.0)


def test_default_params_rejects_an_eps_whose_z_sum_overflows():
    """z gains up to eps_d a slot, so horizon_slots**2 * eps_d bounds the
    sum of z the summary averages; eps_d is rejected where that bound is
    inf and accepted where it is finite. No scenario has a horizon whose
    square a float cannot hold: horizon_slots is at most 10**6."""
    scenario = ScenarioConfig(horizon_slots=10)
    with pytest.raises(ConfigError, match=r"^eps_d=1e\+307 is too large for horizon_slots=10: the sum of z"):
        default_params(scenario, v=1.0, eps_d=1e307)
    assert default_params(scenario, v=1.0, eps_d=1e306).eps_d == 1e306
    with pytest.raises(ConfigError, match=r"^horizon_slots must be <= 1000000, got 1000+$"):
        ScenarioConfig(horizon_slots=10**200)
    with pytest.raises(ConfigError, match=r"^eps_d=1e\+297 is too large for horizon_slots=1000000: the sum of z"):
        default_params(ScenarioConfig(horizon_slots=10**6), v=1.0, eps_d=1e297)


@pytest.mark.parametrize("label", ALL_POLICIES)
def test_price_reading_kinds_are_the_kinds_whose_wishes_follow_prices(monkeypatch, label):
    """Permuting a market's realized prices leaves every wish of a
    price-blind kind as it was and changes some wish of a price-reading
    one: PRICE_READING_KINDS names exactly the kinds that read joint_price."""
    scenario = ScenarioConfig(horizon_slots=400, initial_backlog=3, seed=21)
    policy = parse_policy(label)
    params = default_params(scenario, v=2.0, eps_d=1.0)
    market = draw_realization(scenario)
    order = np.random.default_rng(5).permutation(len(market))
    permuted = dataclasses.replace(
        market, price_ris=market.price_ris[order], price_spectrum=market.price_spectrum[order]
    )
    monkeypatch.setattr(simulator, "draw_realization", lambda scenario: market)
    wishes = run(scenario, policy, params).column("x_desired")
    monkeypatch.setattr(simulator, "draw_realization", lambda scenario: permuted)
    permuted_wishes = run(scenario, policy, params).column("x_desired")
    reads_prices = policy.kind in _kernels.PRICE_READING_KINDS
    assert np.array_equal(wishes, permuted_wishes) is not reads_prices


def test_mixed_runs_equal_separate_runs():
    """compare's cells (dsf, myopic, price_only:8) on one market: the
    joint-price list is built for all of them, and each cell's columns are
    byte-equal to those of run() of its cell alone."""
    scenario = ScenarioConfig(horizon_slots=500, initial_backlog=3, seed=29)
    params = default_params(scenario, v=10.0, eps_d=1.0)
    policies = [parse_policy(label) for label in ("dsf", "myopic", "price_only:8")]
    for policy, got in zip(policies, cell_columns(scenario, [(policy, params) for policy in policies]), strict=True):
        want = run(scenario, policy, params)
        assert list(got) == list(TRACE_COLUMNS)
        for name in TRACE_COLUMNS:
            assert got[name].dtype == want.column(name).dtype, name
            assert got[name].tobytes() == want.column(name).tobytes(), name


@pytest.mark.parametrize(
    "labels, list_built",
    [
        (["dsf", "dsf_exact_argmin", "periodic:3", "greedy", "queue_threshold:5"], False),
        (["dsf", "myopic"], True),
        (["price_only:8"], True),
    ],
)
def test_python_loop_gets_a_price_list_only_for_price_reading_kinds(monkeypatch, labels, list_built):
    """The joint-price list is built only when a cell reads it; otherwise
    the loop is handed the unread array."""
    calls = []
    get_loop = simulator.get_loop

    def recording_get_loop(key):
        def loop(*args):
            calls.append(args)
            return get_loop(key)(*args)

        return loop

    monkeypatch.setattr(simulator, "get_loop", recording_get_loop)
    scenario = ScenarioConfig(horizon_slots=50, seed=4)
    params = default_params(scenario, v=5.0, eps_d=1.0)
    cells = list(cell_columns(scenario, [(parse_policy(label), params) for label in labels]))
    assert len(cells) == len(calls) == len(labels)
    for args in calls:
        arrival, joint_price = args[4], args[5]
        assert type(arrival) is list
        assert type(joint_price) is (list if list_built else np.ndarray)


def allowed_value(name):
    """Any value COLUMN_RULES allows in column `name`."""
    rule = COLUMN_RULES[name]
    return st.floats(0.0, allow_nan=False, allow_infinity=False) if rule is None else st.integers(*rule)


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(ALL_POLICIES),
    freeze=st.booleans(),
    horizon=st.integers(2, 12),
    backlog=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    v=st.floats(0.1, 20.0),
    eps_d=st.floats(0.1, 2.0),
    data=st.data(),
)
def test_audit_names_the_row_of_a_changed_cell(label, freeze, horizon, backlog, seed, v, eps_d, data):
    """A run's trace passes the audit. One cell of a column the market does
    not give, set to another value COLUMN_RULES allows, is named at its row
    or the next, except in the cells the rebuild takes as given."""
    scenario = ScenarioConfig(
        horizon_slots=horizon, initial_backlog=backlog, seed=seed, freeze_z_when_empty=freeze
    )
    trace = run(scenario, parse_policy(label), default_params(scenario, v=v, eps_d=eps_d))
    audit(trace)
    # the cells the audit takes as given and no later row repeats: the
    # start state, and the last z_after
    unjudged = {("q_before", 0), ("z_before", 0), ("z_after", horizon - 1)}
    name, row = data.draw(st.sampled_from([
        (name, row) for name in TRACE_COLUMNS if name not in MARKET_FIELDS for row in range(horizon)
        if (name, row) not in unjudged
    ]))
    old = trace.column(name)[row].item()
    new = data.draw(allowed_value(name).filter(lambda value: value != old))
    columns = {column: trace.column(column).copy() for column in TRACE_COLUMNS}
    columns[name][row] = new
    with pytest.raises(ConfigError) as caught:
        audit(Trace(columns))
    assert re.match(rf"trace row ({row + 1}|{row + 2}): \w+ must be .+ by the slot rule, got ", str(caught.value))


def test_audit_passes_a_step_chain_from_slot_5():
    """Records of step() from t = 5 on, stacked into a Trace, are a trace
    by the slot rule."""
    scenario = ScenarioConfig(horizon_slots=40, initial_backlog=3, seed=5)
    realization = draw_realization(scenario)
    params = default_params(scenario, v=4.0, eps_d=0.5)
    state, records = QueueState(3.0, 0.0), []
    for i in range(len(realization)):
        state, record = step(state, realization.observation(i), DSF, params, t=5 + i)
        records.append(record)
    trace = Trace({name: [getattr(record, name) for record in records] for name in TRACE_COLUMNS})
    assert trace.column("t")[0] == 5
    audit(trace)


def test_audit_names_the_first_row_and_column_that_differ():
    """Of two changed cells the earlier row's is named, with the value the
    slot rule gives there; an empty trace has nothing to judge."""
    scenario = ScenarioConfig(horizon_slots=30, initial_backlog=2, seed=3)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    columns = {name: trace.column(name).copy() for name in TRACE_COLUMNS}
    columns["cost"][7] += 1.0
    columns["t"][9] = 1
    with pytest.raises(ConfigError, match=re.escape(
        f"trace row 8: cost must be {trace.column('cost')[7].item()!r} by the slot rule, "
        f"got {columns['cost'][7].item()!r}"
    )):
        audit(Trace(columns))
    columns = {name: trace.column(name).copy() for name in TRACE_COLUMNS}
    columns["t"][9] = 1
    with pytest.raises(ConfigError, match=re.escape("trace row 10: t must be 10 by the slot rule, got 1")):
        audit(Trace(columns))
    audit(Trace({name: column[:0] for name, column in columns.items()}))  # nothing to judge


@pytest.mark.parametrize(
    "name, row, value, message",
    [
        ("price_ris", 1, -2.0, "trace row 2: price_ris must be a finite number >= 0, got -2.0"),
        ("z_after", 5, -1.0, "trace row 6: z_after must be a finite number >= 0, got -1.0"),
        ("q_before", 0, math.nan, "trace row 1: q_before must be a finite number >= 0, got nan"),
        ("price_ris", 0, math.inf, "trace row 1: price_ris must be a finite number >= 0, got inf"),
    ],
    ids=["lease_price_below_zero", "last_z_after_below_zero", "first_q_before_nan", "idle_price_inf"],
)
def test_audit_judges_every_value_by_column_rules_first(name, row, value, message):
    """A value COLUMN_RULES rejects is named as such before the rebuild,
    which would pass it (a negative lease price with its cost to match, a
    negative last z_after), misname it (NaN, unequal to itself) or meet it
    with a numpy warning (0 * inf in the cost of a slot without a lease)."""
    scenario = ScenarioConfig(horizon_slots=6, initial_backlog=3, seed=1)
    trace = run(scenario, GREEDY, default_params(scenario, v=1.0, eps_d=1.0))
    assert trace.column("r").tolist()[:2] == [0, 1]  # no lease in row 1, a lease in row 2
    columns = {column: trace.column(column).copy() for column in TRACE_COLUMNS}
    columns[name][row] = value
    leased = columns["r"] == 1
    columns["cost"][leased] = columns["price_ris"][leased] + columns["price_spectrum"][leased]  # the slot rule's cost
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        audit(Trace(columns))
