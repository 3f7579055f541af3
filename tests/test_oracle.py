"""Offline minimum-cost oracle: worked examples, guards, and cross-checks
against exhaustive search and a backward DP."""
import contextlib
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leasesim.cli import main
from leasesim.core import ConfigError
from leasesim.environment import (
    DEFAULT_SEED,
    MARKET_FIELDS,
    MarketObservation,
    Realization,
    ScenarioConfig,
    check_value,
    draw_realization,
)
from leasesim.policies import parse_policy
from leasesim.reporting import read_trace_csv, write_trace_csv
from leasesim.simulator import TRACE_COLUMNS, Trace, audit, default_params, offline_min_cost, run


def obs(price_ris, price_spectrum, avail=1, arrival=0):
    return MarketObservation(
        price_ris=price_ris,
        price_spectrum=price_spectrum,
        avail_ris=avail,
        avail_spectrum=avail,
        arrival=arrival,
    )


WORKED = [obs(2, 3), obs(9, 9), obs(1, 1)]


def brute_force_min_cost(observations, initial_backlog, deadline, exact=False):
    """Reference: enumerate every decision vector over the open slots in
    product order and keep the first strict minimum, so ties go to the
    lexicographically first vector. The minimum is of the float cost added
    in slot order or, with `exact`, of the exact rational sum of the same
    per-slot float joint prices; the cost returned is the float sum either
    way. Exponential; short windows only.
    """
    observations = list(observations)[:deadline]
    open_slots = [
        i for i, o in enumerate(observations) if o.avail_ris == 1 and o.avail_spectrum == 1
    ]
    best_key = best_cost = math.inf
    best_decisions = []
    feasible = False
    for choices in itertools.product((0, 1), repeat=len(open_slots)):
        decisions = [0] * deadline
        for slot, d in zip(open_slots, choices):
            decisions[slot] = d
        q = float(initial_backlog)
        cost = 0.0
        exact_cost = Fraction(0)
        for i, o in enumerate(observations):
            q += o.arrival
            d = decisions[i]
            if d:
                cost += o.price_ris + o.price_spectrum
                exact_cost += Fraction(o.price_ris + o.price_spectrum)
            q = max(q - d, 0.0)
        key = exact_cost if exact else cost
        if q == 0.0 and key < best_key:
            best_key = key
            best_cost = cost
            best_decisions = decisions
            feasible = True
    if not feasible:
        return math.inf, [], False
    return best_cost, best_decisions, True


def replay(observations, backlog, decisions):
    """Final backlog and cost of a schedule, summed in slot order."""
    q = float(backlog)
    cost = 0.0
    for o, d in zip(observations, decisions):
        q += o.arrival
        if d:
            assert o.avail_ris == 1 and o.avail_spectrum == 1
            cost += o.price_ris + o.price_spectrum
        q = max(q - d, 0.0)
    return q, cost


def dp_min_cost(observations, initial_backlog, deadline):
    """Independent check: backward value iteration over (slot, backlog).

    Same clearing objective as the enumeration, different algorithm.
    """
    observations = list(observations)[:deadline]
    max_q = initial_backlog + sum(o.arrival for o in observations)
    best = [math.inf] * (max_q + 1)
    best[0] = 0.0
    for o in reversed(observations):
        price = o.price_ris + o.price_spectrum
        can_lease = o.avail_ris == 1 and o.avail_spectrum == 1
        nxt = [math.inf] * (max_q + 1)
        for q in range(max_q + 1):
            qa = min(q + o.arrival, max_q)
            hold = best[qa]
            lease = price + best[max(qa - 1, 0)] if can_lease else math.inf
            nxt[q] = min(hold, lease)
        # arrivals were already folded in above; states index pre-arrival backlog
        best = nxt
    return best[min(initial_backlog, max_q)]


def test_worked_example():
    cost, decisions, feasible = offline_min_cost(WORKED, 1, 3)
    assert cost == 2.0
    assert decisions == [0, 0, 1]
    assert feasible


def test_worked_example_avoids_masked_cheap_slot():
    blocked = [obs(2, 3), obs(9, 9), obs(1, 1, avail=0)]
    cost, decisions, feasible = offline_min_cost(blocked, 1, 3)
    assert (cost, decisions, feasible) == (5.0, [1, 0, 0], True)


def test_infeasible_capacity():
    cost, decisions, feasible = offline_min_cost([obs(1, 1)], 2, 1)
    assert math.isinf(cost)
    assert decisions == []
    assert not feasible


def test_infeasible_outage():
    dark = [obs(1, 1, avail=0), obs(1, 1, avail=0)]
    assert offline_min_cost(dark, 1, 2) == (math.inf, [], False)


def test_zero_backlog_is_free():
    cost, decisions, feasible = offline_min_cost(WORKED, 0, 3)
    assert (cost, feasible) == (0.0, True)
    assert decisions == [0, 0, 0]


def test_arrivals_must_be_cleared_too():
    stream = [obs(4, 4, arrival=1), obs(2, 2), obs(3, 3)]
    cost, decisions, feasible = offline_min_cost(stream, 0, 3)
    assert feasible and cost == 4.0
    assert decisions == [0, 1, 0]


def test_guards():
    with pytest.raises(ConfigError):
        offline_min_cost(WORKED, 1, 0)
    with pytest.raises(ConfigError):
        offline_min_cost(WORKED, -1, 3)
    with pytest.raises(ConfigError, match="slots"):
        offline_min_cost(WORKED, 1, 5)


def test_long_window_replays_to_claimed_cost():
    scenario = ScenarioConfig(horizon_slots=200, initial_backlog=5, arrival_prob=0.3, seed=5)
    realization = draw_realization(scenario)
    cost, decisions, feasible = offline_min_cost(realization, 5, 200)
    assert feasible and len(decisions) == 200
    observations = [realization.observation(i) for i in range(200)]
    assert replay(observations, 5, decisions) == (0.0, cost)


@pytest.mark.parametrize(
    "backlog,deadline,field",
    [
        (1.5, 3, "initial backlog"),
        (True, 3, "initial backlog"),
        (1, 2.5, "deadline"),
        (1, True, "deadline"),
    ],
)
def test_rejects_non_integer_backlog_and_deadline(backlog, deadline, field):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        offline_min_cost(WORKED, backlog, deadline)


# (what slot 2 becomes, the message on observations, the message on a
# Realization); as a column the bad value sets the dtype, so a float
# arrival or a bool flag column is already wrong in slot 1
BAD_MARKET_VALUES = [
    (dict(price_ris=-5), "slot 2: price_ris", "slot 2: price_ris"),
    (dict(price_spectrum=math.nan), "slot 2: price_spectrum", "slot 2: price_spectrum"),
    (dict(price_ris=math.inf), "slot 2: price_ris", "slot 2: price_ris"),
    (dict(arrival=1.5), "slot 2: arrival", "slot 1: arrival must be an integer, got 0.0"),
    (dict(arrival=-1), "slot 2: arrival", "slot 2: arrival"),
    (dict(avail_ris=2), "slot 2: avail_ris", "slot 2: avail_ris"),
    (
        dict(avail_spectrum=True),
        "slot 2: avail_spectrum",
        "slot 1: avail_spectrum must be an integer, got True",
    ),
    (
        dict(arrival=1.0),
        "slot 2: arrival must be an integer, got 1.0",
        "slot 1: arrival must be an integer, got 0.0",
    ),
    (
        dict(avail_ris=False),
        "slot 2: avail_ris must be an integer, got False",
        "slot 1: avail_ris must be an integer, got True",
    ),
]


@pytest.mark.parametrize("fields,message", [case[:2] for case in BAD_MARKET_VALUES])
def test_rejects_bad_market_values(fields, message):
    market = list(WORKED)
    market[1] = MarketObservation(**{**vars(WORKED[1]), **fields})
    with pytest.raises(ConfigError, match=message):
        offline_min_cost(market, 1, 3)


def per_slot_error(realization, deadline):
    """Reference: check_value on each of the first `deadline` slots of
    each column in MARKET_FIELDS order, so a bad market is named by its
    first bad column and that column's first bad slot; None when every
    slot passes."""
    try:
        for name in MARKET_FIELDS:
            for t, value in enumerate(getattr(realization, name)[:deadline].tolist(), start=1):
                check_value(f"slot {t}", name, value)
    except ConfigError as exc:
        return str(exc)
    return None


def oracle_error(market, deadline):
    try:
        offline_min_cost(market, 1, deadline)
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("fields,message", [case[::2] for case in BAD_MARKET_VALUES])
def test_rejects_bad_market_values_on_realization(fields, message):
    ((name, value),) = fields.items()
    columns = {field: [getattr(o, field) for o in WORKED] for field in MARKET_FIELDS}
    columns[name][1] = value
    realization = Realization(
        **{
            field: np.array(values, dtype=type(value) if field == name else None)
            for field, values in columns.items()
        }
    )
    error = oracle_error(realization, 3)
    assert error is not None and error.startswith(message)
    assert error == per_slot_error(realization, 3)


# the cases whose bad value a CSV cell holds as it is: an integer in an
# integer column, a number in a price column
CSV_CELL_CASES = [
    fields
    for fields, _, _ in BAD_MARKET_VALUES
    for name, value in fields.items()
    if not isinstance(value, bool) and isinstance(value, (int, float) if name.startswith("price") else int)
]


@pytest.mark.parametrize("fields", CSV_CELL_CASES, ids=lambda fields: "-".join(map(str, *fields.items())))
def test_csv_reader_and_oracle_apply_one_rule(tmp_path, capsys, fields):
    """A bad value at row 2 of a realization CSV and at slot 2 of a
    Realization is rejected with the same message."""
    ((name, value),) = fields.items()
    columns = {
        field: np.array(
            [getattr(o, field) for o in WORKED], dtype=np.float64 if field.startswith("price") else np.int64
        )
        for field in MARKET_FIELDS
    }
    columns[name][1] = value
    path = tmp_path / "real.csv"
    path.write_text(
        ",".join(MARKET_FIELDS) + "\n"
        + "".join(",".join(map(str, slot)) + "\n" for slot in zip(*(c.tolist() for c in columns.values())))
    )
    assert main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", "3"]) == 1
    csv_error = capsys.readouterr().err
    oracle = oracle_error(Realization(**columns), 3)
    assert csv_error.startswith(f"error: {path}: row 2: ") and oracle.startswith("slot 2: ")
    assert csv_error.removeprefix(f"error: {path}: row 2: ").rstrip("\n") == oracle.removeprefix("slot 2: ")


# per market column, values a CSV cell can hold that break its COLUMN_RULES entry
BAD_CELLS = {
    "arrival": [-1, -7],
    "price_ris": [-1.0, -0.5, math.nan, math.inf, -math.inf],
    "price_spectrum": [-2.0, math.nan, math.inf],
    "avail_ris": [2, -1],
    "avail_spectrum": [2, 5],
}


@st.composite
def faulty_markets(draw):
    """Market columns of 1-12 valid slots with 1-3 cells, in any columns
    and rows, replaced by bad values, and the set of (column, row) of the
    bad cells."""
    n = draw(st.integers(1, 12))
    cells = {
        "arrival": st.integers(0, 3),
        "price_ris": st.floats(0.0, 10.0),
        "price_spectrum": st.floats(0.0, 10.0),
        "avail_ris": st.integers(0, 1),
        "avail_spectrum": st.integers(0, 1),
    }
    columns = {
        name: np.array(draw(st.lists(cells[name], min_size=n, max_size=n)),
                       dtype=np.float64 if name.startswith("price") else np.int64)
        for name in MARKET_FIELDS
    }
    bad = set()
    for _ in range(draw(st.integers(1, 3))):
        name, row = draw(st.sampled_from(MARKET_FIELDS)), draw(st.integers(0, n - 1))
        columns[name][row] = draw(st.sampled_from(BAD_CELLS[name]))
        bad.add((name, row))
    return columns, bad


def first_bad_cell(bad, order):
    """'{1-based row}: {name} must be ' for the first bad cell of the first
    column in `order` that holds one."""
    name, row = min(bad, key=lambda cell: (order.index(cell[0]), cell[1]))
    return f"{row + 1}: {name} must be "


def realization_csv_text(columns):
    return ",".join(columns) + "\n" + "".join(
        ",".join(map(repr, slot)) + "\n" for slot in zip(*(values.tolist() for values in columns.values()))
    )


@settings(max_examples=200, deadline=None)
@given(market=faulty_markets())
def test_every_oracle_input_names_the_first_bad_column_then_its_first_bad_slot(tmp_path_factory, market):
    """The oracle on a Realization, on the same slots as observations, and
    `leasesim oracle` on the market's CSV name one bad value, the first in
    MARKET_FIELDS order, with the same text after their prefixes."""
    columns, bad = market
    n = len(columns["arrival"])
    realization = Realization(**columns)
    path = tmp_path_factory.getbasetemp() / "faulty_market.csv"
    path.write_text(realization_csv_text(columns))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", str(n)]) == 1
    messages = [
        oracle_error(realization, n).removeprefix("slot "),
        oracle_error([realization.observation(i) for i in range(n)], n).removeprefix("slot "),
        stderr.getvalue().removeprefix(f"error: {path}: row ").rstrip("\n"),
    ]
    assert messages[0].startswith(first_bad_cell(bad, MARKET_FIELDS))
    assert messages == [messages[0]] * 3


@settings(max_examples=100, deadline=None)
@given(market=faulty_markets())
def test_audit_and_the_trace_reader_name_the_same_bad_value(tmp_path_factory, market):
    """A run's trace carrying a faulty market: audit and read_trace_csv of
    its CSV name one bad value, the first in TRACE_COLUMNS order, with the
    same text after their prefixes."""
    columns, bad = market
    scenario = ScenarioConfig(horizon_slots=len(columns["arrival"]))
    trace = run(scenario, parse_policy("dsf"), default_params(scenario, v=10.0, eps_d=1.0))
    faulty = Trace({**{name: trace.column(name) for name in TRACE_COLUMNS}, **columns})
    path = tmp_path_factory.getbasetemp() / "faulty_trace.csv"
    write_trace_csv(faulty, path)
    with pytest.raises(ConfigError) as audited:
        audit(faulty)
    with pytest.raises(ConfigError) as read:
        read_trace_csv(path)
    message = str(audited.value).removeprefix("trace row ")
    assert message.startswith(first_bad_cell(bad, TRACE_COLUMNS))
    assert str(read.value).removeprefix(f"{path}: row ") == message


# per dtype, values a market column of that dtype can hold; the first two
# of each are valid everywhere, the rest wrong for some or all columns
COLUMN_VALUES = {
    np.int64: [0, 1, 2, -1, 7],
    np.int32: [0, 1, -3, 2],
    np.uint8: [0, 1, 2, 255],
    np.float64: [0.0, 1.0, 2.5, -1.0, -0.0, math.nan, math.inf, 1e308],
    np.float32: [0.0, 1.0, 0.5, -2.0, math.inf],
    np.float16: [0.0, 1.0, 3.5, math.nan],
    np.bool_: [False, True],
    np.longdouble: [0.0, 1.0, np.longdouble(1e300) * 1e100],
    object: [0, 1, 1.0, -1, True, 3.5, None],
}


def test_column_pass_agrees_with_the_per_slot_check():
    """Random columns of every dtype: the oracle accepts a Realization, and
    the same slots as observations, exactly when the per-slot check of
    each column does, with the same message; an accepted one gives the
    same answer both ways."""
    rng = np.random.default_rng(2)
    dtypes = list(COLUMN_VALUES)
    accepted = 0
    for _ in range(1500):
        n = int(rng.integers(1, 7))
        columns = {}
        for name in MARKET_FIELDS:
            usual = np.float64 if name.startswith("price") else np.int64
            dtype = usual if rng.random() < 0.75 else dtypes[rng.integers(len(dtypes))]
            values = COLUMN_VALUES[dtype]
            picks = [values[rng.integers(2 if rng.random() < 0.9 else len(values))] for _ in range(n)]
            columns[name] = np.array(picks, dtype=dtype)
        realization = Realization(**columns)
        observations = [
            MarketObservation(**dict(zip(MARKET_FIELDS, slot)))
            for slot in zip(*(column.tolist() for column in columns.values()))
        ]
        deadline = int(rng.integers(1, n + 1))
        error = per_slot_error(realization, deadline)
        assert oracle_error(realization, deadline) == error
        assert oracle_error(observations, deadline) == error
        if error is None:
            accepted += 1
            assert offline_min_cost(realization, 1, deadline) == offline_min_cost(
                observations, 1, deadline
            )
    assert 300 < accepted < 1200


def test_price_sum_overflow_is_not_a_bad_price():
    huge = np.array([1e308, 1e308])
    flags = np.ones(2, dtype=np.int64)
    realization = Realization(np.zeros(2, dtype=np.int64), huge, huge, flags, flags)
    assert oracle_error(realization, 2) is None
    assert per_slot_error(realization, 2) is None


@pytest.mark.parametrize("n", [0, 2])
def test_realization_shorter_than_deadline(n):
    ints, floats = np.zeros(n, dtype=np.int64), np.ones(n)
    realization = Realization(ints, floats, floats, ints + 1, ints + 1)
    assert oracle_error(realization, 3) == f"realization has {n} slots but the deadline needs 3"


@pytest.mark.parametrize("deadline", [2, 4])
@pytest.mark.parametrize("short", MARKET_FIELDS)
def test_realization_with_a_short_column(short, deadline):
    columns = {
        name: (np.zeros if name == "arrival" else np.ones)(
            2 if name == short else 4, dtype=np.float64 if name.startswith("price") else np.int64
        )
        for name in MARKET_FIELDS
    }
    assert oracle_error(Realization(**columns), deadline) == (
        f"realization columns differ in length: {short} has 2 slots, another has 4"
    )


class CountedObservation:
    """An observation that counts, in `reads`, the reads of its fields."""

    def __init__(self, reads, **fields):
        self._reads, self._fields = reads, fields

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        self._reads.append(name)
        return self._fields[name]


def counted_market(n, bad_slot=None, **bad):
    """`n` counted observations of WORKED[0]'s values, slot `bad_slot` (1-based)
    given the values in `bad`, and the list their reads are counted in."""
    reads = []
    return [
        CountedObservation(reads, **{**vars(WORKED[0]), **(bad if t == bad_slot else {})})
        for t in range(1, n + 1)
    ], reads


def test_only_the_observations_before_the_deadline_are_read():
    market, reads = counted_market(1000, bad_slot=500, arrival=-1)
    assert offline_min_cost(market, 1, 12) == offline_min_cost(list(WORKED[:1]) * 12, 1, 12)
    assert len(reads) == 12 * len(MARKET_FIELDS)


@pytest.mark.parametrize("n, bad_slot, message", [
    (2, None, "realization has 2 slots but the deadline needs 3"),
    (3, 3, "slot 3: arrival must be >= 0, got -1"),
    (4, 4, None),  # past the deadline, so never judged
])
def test_counted_observations_keep_the_messages(n, bad_slot, message):
    market, reads = counted_market(n, bad_slot, arrival=-1)
    assert oracle_error(market, 3) == message
    assert len(reads) == min(n, 3) * len(MARKET_FIELDS)


def test_two_dimensional_column_is_checked_slot_by_slot():
    flags = np.ones(2, dtype=np.int64)
    realization = Realization(np.zeros((2, 2), dtype=np.int64), np.ones(2), np.ones(2), flags, flags)
    assert oracle_error(realization, 2) == "slot 1: arrival must be an integer, got [0, 0]"


def test_accepts_realization_object():
    scenario = ScenarioConfig(horizon_slots=8, seed=21, initial_backlog=1)
    realization = draw_realization(scenario)
    via_object = offline_min_cost(realization, 1, 8)
    via_list = offline_min_cost(
        [realization.observation(i) for i in range(8)], 1, 8
    )
    assert via_object == via_list


@pytest.mark.parametrize("price_ris, message", [
    ([1.0, 2.0], None),
    ([1.0, -2.0], "slot 2: price_ris must be a finite number >= 0, got -2.0"),
])
def test_list_columns_give_what_array_columns_give(price_ris, message):
    columns = ([0, 1], price_ris, [1.0, 2.0], [1, 1], [1, 1])
    as_lists, as_arrays = Realization(*columns), Realization(*map(np.array, columns))
    assert oracle_error(as_lists, 2) == oracle_error(as_arrays, 2) == message
    if message is None:
        assert offline_min_cost(as_lists, 0, 2) == offline_min_cost(as_arrays, 0, 2) == (4.0, [0, 1], True)


def test_returned_schedule_replays_to_claimed_cost():
    rng = np.random.default_rng(0)
    for trial in range(30):
        deadline = int(rng.integers(1, 9))
        backlog = int(rng.integers(0, 4))
        observations = [
            obs(
                float(rng.uniform(1, 10)),
                float(rng.uniform(1, 10)),
                avail=int(rng.random() < 0.8),
                arrival=int(rng.random() < 0.3),
            )
            for _ in range(deadline)
        ]
        cost, decisions, feasible = offline_min_cost(observations, backlog, deadline)
        if not feasible:
            continue
        assert replay(observations, backlog, decisions) == (0.0, cost)


def test_enumeration_agrees_with_dp():
    rng = np.random.default_rng(7)
    for trial in range(50):
        deadline = int(rng.integers(1, 11))
        backlog = int(rng.integers(0, 4))
        observations = [
            obs(
                float(rng.uniform(1, 10)),
                float(rng.uniform(1, 10)),
                avail=int(rng.random() < 0.7),
                arrival=int(rng.random() < 0.4),
            )
            for _ in range(deadline)
        ]
        enum_cost, _, enum_feasible = offline_min_cost(observations, backlog, deadline)
        dp_cost = dp_min_cost(observations, backlog, deadline)
        if enum_feasible:
            assert enum_cost == pytest.approx(dp_cost, abs=1e-12), trial
        else:
            assert math.isinf(dp_cost), trial


@pytest.mark.parametrize("label", ["greedy", "periodic:2", "myopic"])
def test_online_policies_never_beat_oracle(label):
    spec = parse_policy(label)
    for seed in range(10):
        scenario = ScenarioConfig(
            horizon_slots=10, initial_backlog=2, arrival_prob=0.2, seed=seed
        )
        params = default_params(scenario, v=1.0, eps_d=1.0)
        trace = run(scenario, spec, params)
        if trace.column("q_after")[-1] != 0.0:
            continue
        oracle_cost, _, feasible = offline_min_cost(draw_realization(scenario), 2, 10)
        assert feasible
        assert trace.column("cost").sum() >= oracle_cost - 1e-9


# float prices, and tie-heavy ones: integers 0-3, halves, and tenths whose
# sums round, so equal totals can come from prefixes of unequal cost
prices = st.one_of(
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
    st.integers(0, 3),
    st.integers(0, 6).map(lambda k: k / 2),
    st.sampled_from([0.1, 0.2, 0.3, 0.7]),
)
slots = st.builds(
    MarketObservation,
    price_ris=prices,
    price_spectrum=prices,
    avail_ris=st.integers(0, 1),
    avail_spectrum=st.integers(0, 1),
    arrival=st.integers(0, 1),
)


@settings(max_examples=300, deadline=None)
@given(observations=st.lists(slots, min_size=1, max_size=12), backlog=st.integers(0, 5))
def test_matches_brute_force(observations, backlog):
    """The oracle minimises the exact sum of the float joint prices; its
    cost is within rounding of the cheapest float sum added in slot order."""
    deadline = len(observations)
    cost, decisions, feasible = offline_min_cost(observations, backlog, deadline)
    expected_cost, expected_decisions, expected_feasible = brute_force_min_cost(
        observations, backlog, deadline, exact=True
    )
    assert (repr(cost), decisions, feasible) == (
        repr(expected_cost), expected_decisions, expected_feasible
    )
    float_cost, _, float_feasible = brute_force_min_cost(observations, backlog, deadline)
    assert float_feasible == feasible
    if feasible:
        # adding at most `deadline` prices in floats errs by at most
        # deadline x 2^-53 x the total lease price, and the oracle's exact sum
        # is the least, so the gap is at most twice that; 2^-50 leaves 4x spare
        total = sum(o.price_ris + o.price_spectrum for o in observations if o.avail_ris and o.avail_spectrum)
        assert float_cost <= cost <= float_cost + total * deadline * 2.0**-50


def test_exact_sum_tie_rule():
    """Where the exact sum and the float sum pick different schedules, the
    oracle follows the exact sum. Slots 0 and 4 both cost 1.0, so leasing
    slots 1, 3 and one of them ties exactly, and [0, 1, 0, 1, 1] comes
    first. Added in slot order, the two sums round to 2.1 and
    2.0999999999999996, so the float-sum enumeration takes [1, 1, 0, 1, 0]."""
    market = [
        MarketObservation(*slot)
        for slot in [
            (0.3, 0.7, 1, 1, 0),
            (0.7, 0.1, 1, 1, 1),
            (0.1, 0.7, 1, 0, 0),
            (0.2, 0.1, 1, 1, 0),
            (0.7, 0.3, 1, 1, 0),
        ]
    ]
    expected = (2.1, [0, 1, 0, 1, 1], True)
    assert offline_min_cost(market, 2, 5) == expected
    assert brute_force_min_cost(market, 2, 5, exact=True) == expected
    assert brute_force_min_cost(market, 2, 5) == (2.0999999999999996, [1, 1, 0, 1, 0], True)


@pytest.mark.parametrize("seed", range(6))
def test_long_windows_match_dp(seed):
    rng = np.random.default_rng(seed)
    deadline = int(rng.integers(300, 501))
    backlog = int(rng.integers(0, 6))
    scenario = ScenarioConfig(
        horizon_slots=deadline,
        initial_backlog=backlog,
        arrival_prob=float(rng.choice([0.3, 0.6])),
        seed=seed,
    )
    realization = draw_realization(scenario)
    cost, _, feasible = offline_min_cost(realization, backlog, deadline)
    dp_cost = dp_min_cost(
        [realization.observation(i) for i in range(deadline)], backlog, deadline
    )
    if feasible:
        assert cost == pytest.approx(dp_cost, rel=1e-12)
    else:
        assert math.isinf(dp_cost)


ROUNDING_PAIRS = [
    (0.1, 0.1), (0.3, 0.1), (0.3, 0.3), (0.1, 0.3), (0.1, 0.1), (0.3, 0.2),
    (0.1, 0.3), (0.1, 0.7), (0.2, 0.2), (0.2, 0.2), (0.3, 0.1), (0.3, 0.3),
]


@pytest.mark.parametrize(
    "market,backlog,expected",
    [
        # one total, 1.6, from prefixes whose costs differ in the last bit:
        # keeping only the cheapest prefix per backlog picks another schedule
        (
            [obs(p, s, arrival=int(t == 5)) for t, (p, s) in enumerate(ROUNDING_PAIRS)],
            4,
            (1.6, [1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0], True),
        ),
        # 0.15 + 0.15 is 0.3 but 0.1 + 0.2 is not: the first vector, [0, 1],
        # costs one ulp more than [1, 0]
        ([obs(0.15, 0.15), obs(0.1, 0.2)], 1, (0.3, [1, 0], True)),
    ],
)
def test_rounding_ties_match_brute_force(market, backlog, expected):
    result = offline_min_cost(market, backlog, len(market))
    assert result == expected
    assert result == brute_force_min_cost(market, backlog, len(market))


ALL_KINDS = [
    "dsf", "dsf_exact_argmin", "greedy", "myopic",
    "periodic:3", "price_only:12", "queue_threshold:1",
]


@pytest.mark.parametrize("label", ALL_KINDS)
@settings(max_examples=15, deadline=None)
@given(
    horizon=st.just(200),
    seed=st.integers(0, 2**32),
    backlog=st.integers(0, 5),
    arrival_prob=st.sampled_from([0.0, 0.05, 0.15, 0.3]),
    v=st.sampled_from([0.5, 10.0]),
)
# the default 5000-slot scenario
@example(horizon=5000, seed=DEFAULT_SEED, backlog=0, arrival_prob=0.3, v=10.0)
def test_no_policy_beats_oracle_on_long_windows(label, horizon, seed, backlog, arrival_prob, v):
    """A policy's lease pattern up to the last slot its queue is empty is
    itself a clearing schedule over that window, so its cost there is at
    least the oracle's; a run that clears its queue by the last slot checks
    the whole horizon."""
    scenario = ScenarioConfig(
        horizon_slots=horizon, initial_backlog=backlog, arrival_prob=arrival_prob, seed=seed
    )
    trace = run(scenario, parse_policy(label), default_params(scenario, v=v, eps_d=1.0))
    empty = np.flatnonzero(trace.column("q_after") == 0.0)
    if empty.size == 0:
        return
    window = int(empty[-1]) + 1
    oracle_cost, _, feasible = offline_min_cost(draw_realization(scenario), backlog, window)
    assert feasible
    assert trace.column("cost")[:window].sum() >= oracle_cost - 1e-9
